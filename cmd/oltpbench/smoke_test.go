package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload with a tiny transaction count, untraced
// and traced, and checks that the result line carries every named
// metric. Workloads the contract lists must also pass the audit with
// no failed request.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots sysplexes")
	}
	c, _ := loadContract(t)
	listed := map[string]bool{}
	for _, w := range c.Workloads {
		listed[w.Name] = true
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				o := options{seed: 7, trace: trace == "1", workDir: t.TempDir()}
				tiny := w
				tiny.roundTx = 40
				if code := runWorkload(o, tiny, &out, &errs); code != 0 {
					t.Fatalf("exit %d\n%s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res finalLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is no result: %v\n%s", err, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or in the wrong unit: %+v", d.name, m)
					}
				}
				for _, name := range e2eOrder {
					if !strings.Contains(out.String(), "\n"+name+" ") {
						t.Errorf("table lacks end-to-end metric %s", name)
					}
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if listed[w.name] && (!res.Correct || res.Failed != 0) {
					t.Errorf("audit failed or requests failed on a contract workload:\n%s", out.String())
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--seconds", "-1"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
