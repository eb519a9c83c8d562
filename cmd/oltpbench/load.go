package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sysplex"
)

// clientStats is what one closed-loop client saw in one round.
type clientStats struct {
	readMS, updMS       []float64       // latency of each committed request
	doneAt              []time.Duration // completion of each committed request, from the window's start
	attempted, failed   int
	expired             int // failures that were deadline expiries
	notFound            int // failures that reported a preloaded account missing
	badOutputs          int // replies that are no valid balance
	committed, deposits int
	depCommitted        []int32 // per account
	depAttempted        []int32
	firstErr            error
}

// roundStats is one measured round: the clients' results merged, the
// window, and the layers' counter readings around it.
type roundStats struct {
	clientStats
	window        time.Duration
	before, after counters
	audit         auditResult
	quiesced      bool
	lat           latencies
	chunkRates    []float64 // tx/s of each chunkTx consecutive completions
}

// chunkTx is the number of consecutive completions one throughput
// sample spans. A chunk is long enough to take in the Logger's
// periodic offloads and short enough that a burst of interference
// from outside the benchmark spoils few of a run's chunks.
const chunkTx = 1000

// chunkRates splits the window at every chunkTx-th completion and
// returns the rate of each whole chunk; a trailing partial chunk is
// left out.
func chunkRates(doneAt []time.Duration) []float64 {
	d := append([]time.Duration(nil), doneAt...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	var rates []float64
	var from time.Duration
	for i := chunkTx - 1; i < len(d); i += chunkTx {
		rates = append(rates, ratio(chunkTx, (d[i]-from).Seconds()))
		from = d[i]
	}
	return rates
}

// latencies are one round's percentiles, in ms.
type latencies struct {
	txP50, txP99, readP50, readP99, updP50, updP99 float64
}

func latenciesOf(readMS, updMS []float64) latencies {
	reads := append([]float64(nil), readMS...)
	upds := append([]float64(nil), updMS...)
	all := append(append([]float64(nil), reads...), upds...)
	sort.Float64s(reads)
	sort.Float64s(upds)
	sort.Float64s(all)
	return latencies{
		txP50: percentile(all, 0.50), txP99: percentile(all, 0.99),
		readP50: percentile(reads, 0.50), readP99: percentile(reads, 0.99),
		updP50: percentile(upds, 0.50), updP99: percentile(upds, 0.99),
	}
}

// seedFor derives client c's RNG seed in round r from the run seed.
func seedFor(seed int64, round, c int) int64 {
	return seed*1_000_003 + int64(round)*7_919 + int64(c)
}

// runRound drives n transactions from the clients against the rig,
// then waits for shipped work to finish and audits the table.
func runRound(ctx context.Context, r *rig, seed int64, round, n int, progress *atomic.Int64) (roundStats, error) {
	var rs roundStats
	per := n / r.w.clients
	res := make([]clientStats, r.w.clients)
	var wg sync.WaitGroup
	rs.before = r.read()
	start := time.Now()
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res[c] = r.client(ctx, rand.New(rand.NewSource(seedFor(seed, round, c))), per, start, progress)
		}(c)
	}
	wg.Wait()
	rs.window = time.Since(start)
	rs.quiesced = r.quiesce(15 * time.Second)
	rs.after = r.read()
	rs.clientStats = merge(res)
	rs.lat = latenciesOf(rs.readMS, rs.updMS)
	rs.chunkRates = chunkRates(rs.doneAt)
	rows, err := r.scanTable(ctx)
	if err != nil {
		return rs, err
	}
	rs.audit = auditRows(rows, r.w.pages, rs.depCommitted, rs.depAttempted)
	return rs, nil
}

// client runs n requests back to back, each waiting for its reply:
// half BALANCE, half DEPOSIT, on uniformly chosen accounts.
func (r *rig) client(ctx context.Context, rng *rand.Rand, n int, start time.Time, progress *atomic.Int64) clientStats {
	cs := clientStats{
		depCommitted: make([]int32, accounts),
		depAttempted: make([]int32, accounts),
	}
	for i := 0; i < n; i++ {
		a := rng.Intn(accounts)
		update := rng.Intn(2) == 1
		prog := "BALANCE"
		if update {
			prog = "DEPOSIT"
			cs.depAttempted[a]++
		}
		cs.attempted++
		t0 := time.Now()
		rctx, cancel := context.WithTimeout(ctx, requestDeadline)
		out, err := r.submit(rctx, prog, accountKey(a))
		cancel()
		t1 := time.Now()
		ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
		progress.Add(1)
		if err != nil {
			cs.failed++
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				cs.expired++
			case strings.Contains(err.Error(), errNoAccount.Error()):
				// Also when the program ran on another system and the
				// error came back as text.
				cs.notFound++
			}
			if cs.firstErr == nil {
				cs.firstErr = err
			}
			continue
		}
		v, perr := strconv.ParseInt(string(out), 10, 64)
		if perr != nil || v < 0 || (update && v < 1) {
			cs.badOutputs++
			cs.failed++
			continue
		}
		cs.committed++
		cs.doneAt = append(cs.doneAt, t1.Sub(start))
		if update {
			cs.deposits++
			cs.depCommitted[a]++
			cs.updMS = append(cs.updMS, ms)
		} else {
			cs.readMS = append(cs.readMS, ms)
		}
	}
	return cs
}

// submit sends one request. Untraced, it is one SubmitViaLogon call.
// Traced, it makes the same three public calls SubmitViaLogon makes
// (Logon, Region.Submit, Logoff) and times each one.
func (r *rig) submit(ctx context.Context, prog, key string) ([]byte, error) {
	t := r.tr
	if t == nil {
		return r.plex.SubmitViaLogon(ctx, prog, []byte(key))
	}
	req, root := t.newID(), t.newID()
	t0 := time.Now()
	out, err := r.submitSteps(ctx, t, req, root, prog, key)
	t.record(req, root, 0, spanRequest, t0, time.Now())
	return out, err
}

func (r *rig) submitSteps(ctx context.Context, t *tracer, req, root uint64, prog, key string) ([]byte, error) {
	net := r.plex.Network()
	t0 := time.Now()
	sess, err := net.Logon(ctx, sysplex.GenericCICS)
	t1 := time.Now()
	t.record(req, t.newID(), root, spanLogon, t0, t1)
	if err != nil {
		return nil, err
	}
	sys, err := r.plex.System(sess.System)
	var out []byte
	if err == nil {
		id := t.newID()
		out, err = sys.Region().Submit(ctx, prog, []byte(traceInput(key, req, id)))
		t.record(req, id, root, spanSubmit, t1, time.Now())
	}
	t2 := time.Now()
	lerr := net.Logoff(context.Background(), sess.ID)
	t.record(req, t.newID(), root, spanLogoff, t2, time.Now())
	if err == nil {
		err = lerr
	}
	return out, err
}

// merge folds the clients' results of one round together.
func merge(res []clientStats) clientStats {
	m := clientStats{
		depCommitted: make([]int32, accounts),
		depAttempted: make([]int32, accounts),
	}
	for _, c := range res {
		m.readMS = append(m.readMS, c.readMS...)
		m.updMS = append(m.updMS, c.updMS...)
		m.doneAt = append(m.doneAt, c.doneAt...)
		m.attempted += c.attempted
		m.failed += c.failed
		m.expired += c.expired
		m.notFound += c.notFound
		m.badOutputs += c.badOutputs
		m.committed += c.committed
		m.deposits += c.deposits
		for a := range m.depCommitted {
			m.depCommitted[a] += c.depCommitted[a]
			m.depAttempted[a] += c.depAttempted[a]
		}
		if m.firstErr == nil {
			m.firstErr = c.firstErr
		}
	}
	return m
}
