package main

import (
	"math"
	"testing"
	"time"
)

func TestTraceInputRoundTrip(t *testing.T) {
	key, req, parent := parseInput([]byte(traceInput("A00042", 17, 99)))
	if key != "A00042" || req != 17 || parent != 99 {
		t.Errorf("parseInput(traceInput) = %q %d %d", key, req, parent)
	}
	key, req, parent = parseInput([]byte("A00042"))
	if key != "A00042" || req != 0 || parent != 0 {
		t.Errorf("parseInput(untraced) = %q %d %d", key, req, parent)
	}
}

// TestSummarizeSelfTime builds two requests' span trees by hand and
// checks each name's mean duration and self time.
func TestSummarizeSelfTime(t *testing.T) {
	tr := newTracer(0)
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	for i, scale := range []int{1, 3} {
		req := uint64(100 + i)
		root, logon, submit, prog, get, put, logoff := tr.newID(), tr.newID(), tr.newID(), tr.newID(), tr.newID(), tr.newID(), tr.newID()
		s := func(us int) time.Time { return at(1000*i + us*scale) }
		tr.record(req, root, 0, spanRequest, s(0), s(100))
		tr.record(req, logon, root, spanLogon, s(2), s(12))
		tr.record(req, submit, root, spanSubmit, s(12), s(90))
		tr.record(req, prog, submit, spanProgram, s(20), s(60))
		tr.record(req, get, prog, spanGet, s(22), s(32))
		tr.record(req, put, prog, spanPut, s(35), s(55))
		tr.record(req, logoff, root, spanLogoff, s(90), s(98))
	}
	sum := summarize(tr.all())
	// Means over scale 1 and 3 are twice the scale-1 figures.
	want := map[int][2]float64{ // mean duration, mean self, in µs
		spanRequest: {200, 8},  // 100 - (10 + 78 + 8)
		spanLogon:   {20, 20},  // leaf
		spanSubmit:  {156, 76}, // 78 - 40
		spanProgram: {80, 20},  // 40 - (10 + 20)
		spanGet:     {20, 20},
		spanPut:     {40, 40},
		spanLogoff:  {16, 16},
	}
	for n, w := range want {
		got := sum[n]
		if got.Count != 2 || math.Abs(got.MeanUS-w[0]) > 1e-6 || math.Abs(got.SelfUS-w[1]) > 1e-6 {
			t.Errorf("%s: %+v, want count 2 mean %v self %v", spanNames[n], got, w[0], w[1])
		}
	}
}
