package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// p99 of 1000 samples leaves ten samples above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([3.5, 1.25, 9, 4], n=4) == [1.8125, 3.75, 7.75]
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v, want 7 7 7", q1, q2, q3)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// (8.25 - 2.75) / 5.5
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestChunkRates(t *testing.T) {
	var done []time.Duration
	// 2 500 completions: the first 1 000 over 1 s, the next 1 000 over
	// 0.5 s, and a partial chunk of 500 that is left out. Unsorted, as
	// merged from several clients.
	for i := chunkTx - 1; i >= 0; i-- {
		done = append(done, time.Duration(i+1)*time.Second/chunkTx)
	}
	for i := 0; i < chunkTx; i++ {
		done = append(done, time.Second+time.Duration(i+1)*time.Second/(2*chunkTx))
	}
	for i := 0; i < chunkTx/2; i++ {
		done = append(done, 2*time.Second+time.Duration(i)*time.Millisecond)
	}
	got := chunkRates(done)
	if len(got) != 2 || math.Abs(got[0]-chunkTx) > 1e-6 || math.Abs(got[1]-2*chunkTx) > 1e-6 {
		t.Errorf("chunkRates = %v, want [%d %d]", got, chunkTx, 2*chunkTx)
	}
	if got := chunkRates(done[:chunkTx-1]); len(got) != 0 {
		t.Errorf("chunkRates of a partial chunk = %v, want none", got)
	}
}
