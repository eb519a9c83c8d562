package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the traced mode times from
// outside the program: the request as a whole, the three public steps
// SubmitViaLogon is made of, and the program body with its two data
// calls.
const (
	spanRequest = iota
	spanLogon
	spanSubmit
	spanProgram
	spanGet
	spanPut
	spanLogoff
	numSpans
)

var spanNames = [numSpans]string{
	"request", "vtam.logon", "txmgr.submit", "app.program", "db.get", "db.put", "vtam.logoff",
}

// span is one timed interval of one request. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	req        uint64
	id, parent uint64
	name       int
	start, end int64
}

// tracer keeps spans in memory while a traced round runs; nothing is
// written until the run ends. A nil *tracer records nothing, which is
// how untraced rounds run the same code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer with room for n spans before it grows.
func newTracer(n int) *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, n)} }

// newID allocates a span ID (request IDs come from the same sequence).
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record stores a finished span.
func (t *tracer) record(req, id, parent uint64, name int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{req: req, id: id, parent: parent, name: name, start: t.since(start), end: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceInput appends the request ID and the parent span to a program
// input, so a program that WLM ships to another system still attaches
// its spans to the right request.
func traceInput(key string, req, parent uint64) string {
	return key + "|" + strconv.FormatUint(req, 10) + "|" + strconv.FormatUint(parent, 10)
}

// parseInput splits a program input into the account key and, when
// traced, the request ID and parent span ID.
func parseInput(in []byte) (key string, req, parent uint64) {
	s := string(in)
	key, rest, traced := strings.Cut(s, "|")
	if !traced {
		return key, 0, 0
	}
	r, p, _ := strings.Cut(rest, "|")
	req, _ = strconv.ParseUint(r, 10, 64)
	parent, _ = strconv.ParseUint(p, 10, 64)
	return key, req, parent
}

// spanSummary is the count, mean duration and mean self time of one
// span name.
type spanSummary struct {
	Count  int
	MeanUS float64
	SelfUS float64
}

// summarize computes, per span name, the mean duration and the mean
// self time: a span's duration minus the part of it its children
// cover. Children are clipped to their parent's interval.
func summarize(spans []span) [numSpans]spanSummary {
	type key struct{ req, id uint64 }
	byID := make(map[key]int, len(spans))
	for i, s := range spans {
		byID[key{s.req, s.id}] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		pi, ok := byID[key{s.req, s.parent}]
		if !ok {
			continue
		}
		p := spans[pi]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[pi] += hi - lo
		}
	}
	var sumDur, sumSelf [numSpans]float64
	var out [numSpans]spanSummary
	for i, s := range spans {
		dur := s.end - s.start
		self := dur - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.name].Count++
		sumDur[s.name] += float64(dur)
		sumSelf[s.name] += float64(self)
	}
	for n := range out {
		if c := float64(out[n].Count); c > 0 {
			out[n].MeanUS = sumDur[n] / c / 1e3
			out[n].SelfUS = sumSelf[n] / c / 1e3
		}
	}
	return out
}

// writeSpans writes spans as tab-separated lines (request, span,
// parent, name, start ns, end ns), ordered by request then start.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].req != sorted[j].req {
			return sorted[i].req < sorted[j].req
		}
		return sorted[i].start < sorted[j].start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "request\tspan\tparent\tname\tstart_ns\tend_ns")
	for _, s := range sorted {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
