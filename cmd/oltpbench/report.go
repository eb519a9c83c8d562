package main

import (
	"fmt"
	"io"
)

// metricDef describes one reported metric. BENCHMARK.json lists the
// same names, units, directions and bounds (a test keeps them equal).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics a user of the sysplex sees, reported
// from untraced rounds; each is non-zero on a healthy run. The table
// prints six more that are not gated. failed_ratio and audit_bad_rows
// are zero on a healthy run and enter the result's "failed" and
// "correct" fields instead. tx_p50_ms falls in the gap between the
// BALANCE and DEPOSIT latency modes of the even mix, so a small shift
// of the mix moves it from one mode to the other. The three p99s
// follow the host's scheduling and fsync tail; their interquartile
// range over five seeds reached a third of the median on a two-CPU
// host, more than the largest bound allowed. stored_bytes_per_update
// moves with each seed's DEPOSIT count because SYSP01 space is
// allocated a dataset at a time, hence its wider bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_update", "B/update", "lower", 0.1},
	{"max_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the metrics of single layers from a traced run: counter
// and histogram differences over every window, span timings from the
// traced rounds, and the tracing overhead.
var perLayer = []metricDef{
	{name: "vtam.logon_us", unit: "us", better: "lower"},
	{name: "vtam.logoff_us", unit: "us", better: "lower"},
	{name: "txmgr.submit_self_us", unit: "us", better: "lower"},
	{name: "txmgr.routed_share", unit: "ratio", better: "lower"},
	{name: "txmgr.retries", unit: "count", better: "lower"},
	{name: "db.program_us", unit: "us", better: "lower"},
	{name: "db.get_us", unit: "us", better: "lower"},
	{name: "db.put_us", unit: "us", better: "lower"},
	{name: "db.aborts", unit: "count", better: "lower"},
	{name: "lockmgr.requests_per_tx", unit: "1/tx", better: "lower"},
	{name: "lockmgr.fast_grant_share", unit: "ratio", better: "higher"},
	{name: "lockmgr.contentions_per_1k", unit: "1/1000", better: "lower"},
	{name: "lockmgr.false_contention_share", unit: "ratio", better: "lower"},
	{name: "lockmgr.negotiations_per_1k", unit: "1/1000", better: "lower"},
	{name: "lockmgr.timeouts", unit: "count", better: "lower"},
	{name: "lockmgr.deadlocks", unit: "count", better: "lower"},
	{name: "lockmgr.wait_us", unit: "us", better: "lower"},
	{name: "buffman.local_hit_share", unit: "ratio", better: "higher"},
	{name: "buffman.global_hits_per_tx", unit: "1/tx", better: "lower"},
	{name: "buffman.dasd_reads_per_tx", unit: "1/tx", better: "lower"},
	{name: "buffman.invalidated_per_tx", unit: "1/tx", better: "lower"},
	{name: "buffman.evictions_per_tx", unit: "1/tx", better: "lower"},
	{name: "buffman.castouts_per_tx", unit: "1/tx", better: "lower"},
	{name: "cf.cmds_per_tx", unit: "1/tx", better: "lower"},
	{name: "cf.cmd_us", unit: "us", better: "lower"},
	{name: "cf.xi_per_update", unit: "1/update", better: "lower"},
	{name: "cfrm.fanout_us", unit: "us", better: "lower"},
	{name: "cfrm.batch_ops_per_tx", unit: "1/tx", better: "higher"},
	{name: "cfrm.retried", unit: "count", better: "lower"},
	{name: "cflink.cmds_per_tx", unit: "1/tx", better: "lower"},
	{name: "cflink.rtt_us", unit: "us", better: "lower"},
	{name: "cflink.rtt_p99_us", unit: "us", better: "lower"},
	{name: "cflink.notifies_per_tx", unit: "1/tx", better: "lower"},
	{name: "logr.writes_per_update", unit: "1/update", better: "lower"},
	{name: "logr.write_us", unit: "us", better: "lower"},
	{name: "logr.offloads", unit: "count", better: "lower"},
	{name: "logr.offload_us", unit: "us", better: "lower"},
	{name: "logr.staging_appends_per_update", unit: "1/update", better: "lower"},
	{name: "dasd.fsyncs_per_update", unit: "1/update", better: "lower"},
	{name: "dasd.fsync_us", unit: "us", better: "lower"},
	{name: "dasd.writes_per_update", unit: "1/update", better: "lower"},
	{name: "dasd.reads_per_tx", unit: "1/tx", better: "lower"},
	{name: "dasd.blocks_per_update", unit: "1/update", better: "lower"},
	{name: "xcf.msgs_per_tx", unit: "1/tx", better: "lower"},
	{name: "rmf.intervals", unit: "count", better: "lower"},
	{name: "span.request.self_us", unit: "us", better: "lower"},
	{name: "span.vtam.logon.self_us", unit: "us", better: "lower"},
	{name: "span.txmgr.submit.self_us", unit: "us", better: "lower"},
	{name: "span.app.program.self_us", unit: "us", better: "lower"},
	{name: "span.db.get.self_us", unit: "us", better: "lower"},
	{name: "span.db.put.self_us", unit: "us", better: "lower"},
	{name: "span.vtam.logoff.self_us", unit: "us", better: "lower"},
	{name: "trace.tx_per_s", unit: "1/s", better: "higher"},
	{name: "trace.untraced_tx_per_s", unit: "1/s", better: "higher"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// value is one end-to-end figure with the sample count behind it.
type value struct {
	v       float64
	unit    string
	samples int
}

// endToEndValues computes every end-to-end metric the table prints,
// gated or not. tx_per_s is the median over the chunks (chunkTx
// consecutive completions) of every untraced round, so a burst of
// interference from outside the benchmark moves few samples.
// Percentiles are the median over untraced rounds of each round's own
// figure (a round that hits a multi-second lock stall moves one
// sample, not the result); setup_s and max_rss_mb are medians over
// every round.
func (res *result) endToEndValues() map[string]value {
	var setups, mems, tps []float64
	var txP50, txP99, rP50, rP99, uP50, uP99 []float64
	var blocks, deposits int64
	var nReads, nUpds int
	for _, r := range res.rounds {
		setups = append(setups, r.setup.Seconds())
		mems = append(mems, r.memMB)
		if r.traced {
			continue
		}
		tps = append(tps, r.chunkRates...)
		txP50 = append(txP50, r.lat.txP50)
		txP99 = append(txP99, r.lat.txP99)
		rP50 = append(rP50, r.lat.readP50)
		rP99 = append(rP99, r.lat.readP99)
		uP50 = append(uP50, r.lat.updP50)
		uP99 = append(uP99, r.lat.updP99)
		nReads += len(r.readMS)
		nUpds += len(r.updMS)
		blocks += r.after.blocks - r.before.blocks
		deposits += int64(r.deposits)
	}
	attempted, failed := res.counts()
	bad := 0
	for _, r := range res.rounds {
		bad += r.audit.BadRows()
	}
	return map[string]value{
		"setup_s":                 {median(setups), "s", len(setups)},
		"tx_per_s":                {median(tps), "1/s", len(tps)},
		"tx_p50_ms":               {median(txP50), "ms", nReads + nUpds},
		"tx_p99_ms":               {median(txP99), "ms", nReads + nUpds},
		"read_p50_ms":             {median(rP50), "ms", nReads},
		"read_p99_ms":             {median(rP99), "ms", nReads},
		"update_p50_ms":           {median(uP50), "ms", nUpds},
		"update_p99_ms":           {median(uP99), "ms", nUpds},
		"failed_ratio":            {ratio(float64(failed), float64(attempted)), "ratio", attempted},
		"stored_bytes_per_update": {ratio(float64(blocks*4096), float64(deposits)), "B/update", int(deposits)},
		"audit_bad_rows":          {float64(bad), "count", len(res.rounds) * accounts},
		"max_rss_mb":              {median(mems), "MiB", len(mems)},
	}
}

// counts totals requests over every round. A row the audit finds
// lost, duplicated or misplaced counts as one more failure, and so
// does an acknowledged DEPOSIT the table does not show: its request
// failed even though its reply said otherwise.
func (res *result) counts() (attempted, failed int) {
	for _, r := range res.rounds {
		attempted += r.attempted
		failed += r.failed + r.audit.BadRows() + r.audit.Lost
	}
	return attempted, failed
}

// correct reports whether every round's table was intact after the
// round and every reply was a valid balance.
func (res *result) correct() bool {
	for _, r := range res.rounds {
		if !r.audit.Intact() || r.badOutputs > 0 {
			return false
		}
	}
	return true
}

// layerValues computes the per-layer metrics.
func (res *result) layerValues() map[string]float64 {
	out := res.layers.metrics()
	sum := summarize(res.spans)
	out["vtam.logon_us"] = sum[spanLogon].MeanUS
	out["vtam.logoff_us"] = sum[spanLogoff].MeanUS
	out["txmgr.submit_self_us"] = sum[spanSubmit].SelfUS
	out["db.program_us"] = sum[spanProgram].MeanUS
	out["db.get_us"] = sum[spanGet].MeanUS
	out["db.put_us"] = sum[spanPut].MeanUS
	for n := 0; n < numSpans; n++ {
		out["span."+spanNames[n]+".self_us"] = sum[n].SelfUS
	}
	var traced, untraced []float64
	for _, r := range res.rounds {
		if r.traced {
			traced = append(traced, r.txPerS())
		} else {
			untraced = append(untraced, r.txPerS())
		}
	}
	t, u := median(traced), median(untraced)
	out["trace.tx_per_s"] = t
	out["trace.untraced_tx_per_s"] = u
	out["trace.overhead_share"] = 1 - ratio(t, u)
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// final is the result line: end-to-end metrics untraced, per-layer
// metrics traced.
func (res *result) final(traced bool) finalLine {
	attempted, failed := res.counts()
	out := finalLine{Correct: res.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	if traced {
		vals := res.layerValues()
		for _, d := range perLayer {
			out.Metrics[d.name] = jsonMetric{vals[d.name], d.unit}
		}
		return out
	}
	vals := res.endToEndValues()
	for _, d := range endToEnd {
		out.Metrics[d.name] = jsonMetric{vals[d.name].v, d.unit}
	}
	return out
}

// e2eOrder is the order of the readable table: the result line's
// metrics with failed_ratio and audit_bad_rows in their places.
var e2eOrder = []string{
	"setup_s", "tx_per_s", "tx_p50_ms", "tx_p99_ms", "read_p50_ms", "read_p99_ms",
	"update_p50_ms", "update_p99_ms", "failed_ratio", "stored_bytes_per_update",
	"audit_bad_rows", "max_rss_mb",
}

// report prints the readable tables.
func (res *result) report(w io.Writer, o options, wl workload) {
	untraced := 0
	for _, r := range res.rounds {
		if !r.traced {
			untraced++
		}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d rounds (%d untraced) of %d transactions, %d clients, %d accounts on %d pages\n",
		wl.name, o.seed, len(res.rounds), untraced, wl.roundTx, wl.clients, accounts, wl.pages)
	vals := res.endToEndValues()
	fmt.Fprintf(w, "%-26s %14s %-9s %s\n", "end-to-end", "value", "unit", "samples")
	for _, name := range e2eOrder {
		v := vals[name]
		fmt.Fprintf(w, "%-26s %14.4f %-9s %d\n", name, v.v, v.unit, v.samples)
	}
	var expired, notFound, bad, other, lost, badRows int
	for _, r := range res.rounds {
		expired += r.expired
		notFound += r.notFound
		bad += r.badOutputs
		other += r.failed - r.expired - r.notFound - r.badOutputs
		lost += r.audit.Lost
		badRows += r.audit.BadRows()
	}
	fmt.Fprintf(w, "failed requests: %d deadline expiries, %d reported a preloaded account missing, %d invalid replies, %d other errors, %d acknowledged DEPOSITs lost, %d bad rows\n",
		expired, notFound, bad, other, lost, badRows)
	if !o.trace {
		return
	}
	lv := res.layerValues()
	fmt.Fprintf(w, "%-34s %14s %s\n", "per-layer", "value", "unit")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.name, lv[d.name], d.unit)
	}
	sum := summarize(res.spans)
	fmt.Fprintf(w, "%-14s %8s %10s %10s\n", "span", "count", "mean_us", "self_us")
	for n := 0; n < numSpans; n++ {
		fmt.Fprintf(w, "%-14s %8d %10.2f %10.2f\n", spanNames[n], sum[n].Count, sum[n].MeanUS, sum[n].SelfUS)
	}
}

// envelope is the full record of a run: host, settings, every round's
// raw figures, and the metrics.
func (res *result) envelope(o options, wl workload) map[string]any {
	rounds := make([]map[string]any, 0, len(res.rounds))
	for _, r := range res.rounds {
		rounds = append(rounds, map[string]any{
			"traced":         r.traced,
			"setup_s":        r.setup.Seconds(),
			"window_s":       r.window.Seconds(),
			"attempted":      r.attempted,
			"committed":      r.committed,
			"deposits":       r.deposits,
			"failed":         r.failed,
			"expired":        r.expired,
			"not_found":      r.notFound,
			"peak_mem_mb":    r.memMB,
			"tx_per_s":       r.txPerS(),
			"chunk_tx_per_s": r.chunkRates,
			"tx_p50_ms":      r.lat.txP50,
			"tx_p99_ms":      r.lat.txP99,
			"read_p50_ms":    r.lat.readP50,
			"read_p99_ms":    r.lat.readP99,
			"update_p50_ms":  r.lat.updP50,
			"update_p99_ms":  r.lat.updP99,
			"blocks":         r.after.blocks - r.before.blocks,
			"sysp01_blocks":  r.after.sysp01,
			"audit_bad_rows": r.audit.BadRows(),
			"audit":          r.audit,
			"quiesced":       r.quiesced,
		})
	}
	metrics := map[string]float64{}
	for name, v := range res.endToEndValues() {
		metrics[name] = v.v
	}
	if o.trace {
		for name, v := range res.layerValues() {
			metrics[name] = v
		}
	}
	attempted, failed := res.counts()
	return map[string]any{
		"workload":    wl.name,
		"seed":        o.seed,
		"trace":       o.trace,
		"host":        hostInfo(),
		"clients":     wl.clients,
		"accounts":    accounts,
		"table_pages": wl.pages,
		"pool_frames": 256,
		"round_tx":    wl.roundTx,
		"deadline_ms": requestDeadline.Milliseconds(),
		"attempted":   attempted,
		"failed":      failed,
		"correct":     res.correct(),
		"rounds":      rounds,
		"metrics":     metrics,
	}
}
