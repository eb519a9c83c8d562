package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json at the root of the repository.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadContract(t *testing.T) (contract, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c, raw
}

// TestContractLimits checks BENCHMARK.json against the limits of the
// benchmark contract.
func TestContractLimits(t *testing.T) {
	c, raw := loadContract(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json needs exactly the 6 contract keys, has %d (%v)", len(keys), err)
	}
	if len(c.Command) == 0 || len(c.Command) > 32 {
		t.Errorf("command has %d strings", len(c.Command))
	}
	for _, s := range c.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			t.Errorf("command string %q breaks the contract", s)
		}
	}
	if len(c.Paths) < 1 || len(c.Paths) > 16 {
		t.Errorf("paths has %d entries", len(c.Paths))
	}
	for _, p := range c.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("path %q breaks the contract", p)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d not in 1..60", c.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(c.Workloads))
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is unknown to the benchmark", w.Name)
		}
	}
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(c.EndToEnd))
	}
	var setupBound, maxBound float64
	for _, m := range c.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q / better %q break the contract", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed with the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(c.PerLayer))
	}
	for _, m := range c.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q / better %q break the contract", m.Name, m.Unit, m.Better)
		}
	}
}

// TestContractMatchesBenchmark checks that BENCHMARK.json lists exactly
// the metrics the benchmark reports, with the same units and bounds.
func TestContractMatchesBenchmark(t *testing.T) {
	c, _ := loadContract(t)
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for _, w := range c.Workloads {
		wl, _ := findWorkload(w.Name)
		if wl.why != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and the benchmark", w.Name)
		}
	}
}
