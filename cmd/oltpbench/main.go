// Command oltpbench is the repository's end-to-end benchmark: the
// Figure 4 path (generic CICS logon, transaction manager routing,
// data sharing through the lock manager and group buffer pools in a
// duplexed CF pair, Logger commit, DASD) driven through the public
// façade by closed-loop clients, with an exactly-once audit of the
// table after every round.
//
//	bash cmd/oltpbench/run.sh --workload oltp-single --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a run that alternates untraced and traced rounds. Both
// are preceded by a readable table and a one-line result envelope.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workDir holds everything a run leaves behind: DASD data directories,
// sockets, logs and spans. It is relative to the directory the
// benchmark runs in, the root of the checkout.
const workDir = ".bench_build"

// options are the settings of one run.
type options struct {
	seed    int64
	seconds int // 0: the fewest rounds
	trace   bool
	workDir string
}

const (
	// sysp01Blocks is the default SYSP01 capacity, which every run
	// must stay under (the benchmark never overrides VolumeBlocks).
	sysp01Blocks = 131072
	// blocksPerDeposit is what one DEPOSIT allocates on SYSP01 today:
	// three log records, each offloaded into a block of its own.
	blocksPerDeposit = 3
	// preloadBlocks bounds what set-up leaves on SYSP01: one block per
	// preloaded account's log record plus commit records, table pages,
	// and a partly filled 512-block offload dataset per log stream.
	preloadBlocks = accounts + 2*accounts/preloadBatch + 1024 + 6*512
	// runLimit is the wall time after which the watchdog fails the
	// run; no round starts after startLimit.
	runLimit   = 170 * time.Second
	startLimit = 110 * time.Second
	stallLimit = 60 * time.Second
	minRounds  = 3
)

// run parses the command line and runs one workload.
func run(args []string, stdout, stderr io.Writer) int {
	var name string
	var trace int
	o := options{workDir: workDir}
	fs := flag.NewFlagSet("oltpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&name, "workload", "oltp-single", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the clients' request streams")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds (sum of round windows)")
	fs.IntVar(&trace, "trace", 0, "1: alternate untraced and traced rounds and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(stderr, "oltpbench: unknown workload %q\n", name)
		return 2
	}
	if o.seconds < 0 {
		fmt.Fprintln(stderr, "oltpbench: --seconds must not be negative")
		return 2
	}
	return runWorkload(o, w, stdout, stderr)
}

// runWorkload runs w and prints the readable tables, the result
// envelope and, as the last line, the result. It returns the exit
// status: 0 only when a result was printed.
func runWorkload(o options, w workload, stdout, stderr io.Writer) int {
	if need := preloadBlocks + w.pages + w.roundTx*blocksPerDeposit; need > sysp01Blocks {
		fmt.Fprintf(stderr, "oltpbench: a round of %d transactions could need %d SYSP01 blocks of %d\n",
			w.roundTx, need, sysp01Blocks)
		return 2
	}
	for _, d := range []string{"logs", "trace"} {
		if err := os.MkdirAll(filepath.Join(o.workDir, d), 0o755); err != nil {
			fmt.Fprintln(stderr, "oltpbench:", err)
			return 1
		}
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, btoi(o.trace))
	logf, err := os.Create(filepath.Join(o.workDir, "logs", tag+".log"))
	if err != nil {
		fmt.Fprintln(stderr, "oltpbench:", err)
		return 1
	}
	defer logf.Close()
	log := io.MultiWriter(stderr, logf)

	var progress atomic.Int64
	wd := startWatchdog(&progress, log)
	defer wd.stop()

	res, err := bench(context.Background(), o, w, &progress, log)
	if err != nil {
		fmt.Fprintf(log, "oltpbench: %s: %v\n", w.name, err)
		return 1
	}
	res.report(stdout, o, w)
	env, err := json.Marshal(res.envelope(o, w))
	if err != nil {
		fmt.Fprintln(log, "oltpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "envelope %s\n", env)
	if o.trace && len(res.spans) > 0 {
		path := filepath.Join(o.workDir, "trace", tag+".tsv")
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(log, "oltpbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(res.spans), path)
	}
	final, err := json.Marshal(res.final(o.trace))
	if err != nil {
		fmt.Fprintln(log, "oltpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", final)
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// round is one set-up, measured window and audit.
type round struct {
	traced bool
	setup  time.Duration
	memMB  float64 // peak resident memory from set-up to the end of the audit
	roundStats
}

func (r round) txPerS() float64 { return ratio(float64(r.committed), r.window.Seconds()) }

// result is everything one run measured.
type result struct {
	rounds []round
	layers layerSums
	spans  []span // of every traced round
}

// bench runs rounds until the untraced windows (all windows, in trace
// mode) add up to o.seconds, with at least minRounds rounds. In trace
// mode rounds go untraced, traced, traced, untraced and so on, so that
// drift over the run falls on both sides of the tracing overhead.
func bench(ctx context.Context, o options, w workload, progress *atomic.Int64, log io.Writer) (*result, error) {
	res := &result{}
	// One tracer for the run, so request and span IDs are unique
	// across its traced rounds.
	var runTracer *tracer
	if o.trace {
		runTracer = newTracer(2 * w.roundTx * numSpans)
		defer func() { res.spans = runTracer.all() }()
	}
	start := time.Now()
	var measured, slowest time.Duration
	for i := 0; ; i++ {
		traced := o.trace && (i%4 == 1 || i%4 == 2)
		var tr *tracer
		if traced {
			tr = runTracer
		}
		t0 := time.Now()
		progress.Add(1)
		mem := startMemSampler()
		rg, setup, err := newRig(ctx, w, o.workDir, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", i, err)
		}
		progress.Add(1)
		rs, err := runRound(ctx, rg, o.seed, i, w.roundTx, progress)
		rg.close()
		peakMB := mem.finish()
		// Return the stopped sysplex's memory now, so that every round's
		// peak starts from the same floor.
		debug.FreeOSMemory()
		// Likewise for the disk: finish writing back and discarding the
		// removed round's files before the next round starts timing.
		syscall.Sync()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if rs.after.sysp01 > sysp01Blocks {
			return nil, fmt.Errorf("round %d used %d SYSP01 blocks of %d", i, rs.after.sysp01, sysp01Blocks)
		}
		rd := round{traced: traced, setup: setup, memMB: peakMB, roundStats: rs}
		res.rounds = append(res.rounds, rd)
		res.layers.add(rs.before, rs.after, int64(rs.committed), int64(rs.deposits))
		fmt.Fprintf(log, "round %d traced=%v setup=%.3fs window=%.3fs tx/s=%.0f p99=%.2fms mem=%.0fMiB failed=%d expired=%d not_found=%d bad_rows=%d lost=%d intact=%v quiesced=%v goroutines=%d\n",
			i, traced, setup.Seconds(), rs.window.Seconds(), rd.txPerS(), rs.lat.txP99, peakMB, rs.failed, rs.expired,
			rs.notFound, rs.audit.BadRows(), rs.audit.Lost, rs.audit.Intact(), rs.quiesced, runtime.NumGoroutine())
		if rs.firstErr != nil {
			fmt.Fprintf(log, "round %d first error: %v\n", i, rs.firstErr)
		}
		if !traced || o.trace {
			measured += rs.window
		}
		slowest = max(slowest, time.Since(t0))
		enough := measured >= time.Duration(o.seconds)*time.Second && i+1 >= minRounds
		if o.trace {
			enough = enough && i%2 == 1 // as many traced rounds as untraced
		}
		if enough {
			return res, nil
		}
		if time.Since(start)+slowest > startLimit {
			if i+1 < 2 || (o.trace && i%2 == 0) {
				return nil, errors.New("rounds too slow: not enough rounds fit the run's time limit")
			}
			fmt.Fprintf(log, "stopping after %d rounds: the next would pass the time limit\n", i+1)
			return res, nil
		}
	}
}

// watchdog fails a run that hangs: past runLimit, or when no request,
// set-up or audit step makes progress for stallLimit, it writes every
// goroutine's stack to the run's log and exits with status 3.
type watchdog struct {
	done chan struct{}
	exit chan struct{}
}

func startWatchdog(progress *atomic.Int64, log io.Writer) *watchdog {
	wd := &watchdog{done: make(chan struct{}), exit: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(wd.exit)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last, lastAt := progress.Load(), time.Now()
		for {
			select {
			case <-wd.done:
				return
			case now := <-tick.C:
				if p := progress.Load(); p != last {
					last, lastAt = p, now
				}
				stalled := now.Sub(lastAt) > stallLimit
				if now.Sub(start) > runLimit || stalled {
					fmt.Fprintf(log, "oltpbench: watchdog: run hung (elapsed %v, no progress for %v); goroutines:\n",
						now.Sub(start).Round(time.Second), now.Sub(lastAt).Round(time.Second))
					_ = pprof.Lookup("goroutine").WriteTo(log, 2)
					os.Exit(3)
				}
			}
		}
	}()
	return wd
}

func (wd *watchdog) stop() {
	close(wd.done)
	<-wd.exit
}

// memSampler tracks, every few milliseconds, the memory the Go runtime
// holds from the operating system (mapped minus released), which is
// the process's resident memory up to the binary's own text.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		rtmetrics.Read(samples)
		if v := samples[0].Value.Uint64() - samples[1].Value.Uint64(); v > m.peak {
			m.peak = v
		}
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// hostInfo fingerprints the machine a result came from.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
