package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sysplex"
	"sysplex/internal/cf"
	"sysplex/internal/cflink"
	"sysplex/internal/cfrm"
	"sysplex/internal/db"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// workload is one configuration the benchmark drives the Figure 4 path
// on. Every workload runs the same request mix; they differ in the
// number of clients, where the coupling facilities live, whether DASD
// is durable, and how the table compares with the local buffer pools.
type workload struct {
	name    string
	why     string
	pages   int  // ACCT table pages (the local pools hold 256 frames)
	durable bool // Config.DataDir on a directory in the work area
	remote  bool // the CF pair as two cflink servers on unix sockets
	clients int  // closed-loop clients, one goroutine each
	// roundTx is the transaction count of one measured round, all
	// clients together. Rounds are sized by count, not duration: the
	// log never shrinks, so a duration-sized round on a faster build
	// would fill SYSP01.
	roundTx int
}

// workloads are every configuration the benchmark runs. BENCHMARK.json
// lists the first two, which run one client: with two, the buffer
// manager loses an acknowledged DEPOSIT now and then on the same
// traffic (see README.md), so the two-client workloads cannot give
// failure-free runs today. They stay runnable, and their audit still
// counts every lost DEPOSIT.
var workloads = []workload{
	{name: "oltp-single", pages: 128, clients: 1, roundTx: 6000,
		why: "one client, in-memory DASD and in-process CF pair; the CF command path, lock manager and Logger interim writes do the work"},
	{name: "oltp-remote-single", pages: 512, remote: true, clients: 1, roundTx: 4000,
		why: "one client, CF pair behind cflink unix sockets and a table twice the local pool, so misses and CF commands cross the link"},
	{name: "oltp", pages: 128, clients: 2, roundTx: 10000,
		why: "two clients, in-memory DASD and in-process CF pair; adds lock contention to oltp-single"},
	{name: "oltp-durable", pages: 128, durable: true, clients: 2, roundTx: 8000,
		why: "two clients, file-backed DASD; Logger staging appends and group-commit fsync dominate"},
	{name: "oltp-remote", pages: 512, remote: true, clients: 2, roundTx: 6000,
		why: "two clients, CF pair behind cflink unix sockets and a table twice the local pool"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	table    = "ACCT"
	accounts = 4096
	nSystems = 4
	// requestDeadline bounds every request well below the default 5 s
	// LockTimeout; an expiry counts as a failure.
	requestDeadline = 250 * time.Millisecond
	// preloadBatch is the number of accounts one set-up transaction
	// inserts.
	preloadBatch = 32
)

// accountKey names account a.
func accountKey(a int) string { return fmt.Sprintf("A%05d", a) }

// accountIndex is the inverse of accountKey (-1 for a foreign key).
func accountIndex(key string) int {
	if len(key) != 6 || key[0] != 'A' {
		return -1
	}
	a, err := strconv.Atoi(key[1:])
	if err != nil || a < 0 || a >= accounts || accountKey(a) != key {
		return -1
	}
	return a
}

var errNoAccount = errors.New("oltpbench: account not found")

// rig is one booted sysplex with its CF servers and work directory,
// set up for one round.
type rig struct {
	w       workload
	plex    *sysplex.Sysplex
	dir     string
	tr      *tracer // nil in untraced rounds
	servers map[string]*cflink.Server
	links   []*cflink.Client
	serving sync.WaitGroup
}

// newRig boots the sysplex for w under workDir, registers the two
// programs and preloads every account with balance 0. The returned
// duration is the set-up time: boot plus preload.
func newRig(ctx context.Context, w workload, workDir string, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(workDir, "r")
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, dir: dir, tr: tr, servers: map[string]*cflink.Server{}}
	cfg := sysplex.DefaultConfig("PLEX1", nSystems)
	cfg.Tables = []sysplex.TableConfig{{Name: table, Pages: w.pages}}
	if w.durable {
		cfg.DataDir = filepath.Join(dir, "dasd")
	}
	if w.remote {
		nodes, err := r.startCFs()
		if err != nil {
			r.close()
			return nil, 0, err
		}
		cfg.CF = cfrm.Policy{Nodes: nodes}
	}
	r.plex, err = sysplex.New(ctx, cfg)
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	r.plex.RegisterProgram("BALANCE", 1, r.balance)
	r.plex.RegisterProgram("DEPOSIT", 1, r.deposit)
	if err := r.preload(ctx); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	return r, time.Since(start), nil
}

// startCFs serves CF01 and CF02 on unix sockets in the work directory
// and dials one link to each, the fleet CFRM duplexes across.
func (r *rig) startCFs() ([]cf.Node, error) {
	var nodes []cf.Node
	for _, name := range []string{"CF01", "CF02"} {
		srv := cflink.NewServer(cf.New(name, vclock.Real()))
		l, err := net.Listen("unix", filepath.Join(r.dir, name+".sock"))
		if err != nil {
			return nil, err
		}
		r.servers[name] = srv
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = srv.Serve(l) // returns when close severs the listener
		}()
		c, err := cflink.Dial("unix", l.Addr().String(), cflink.WithSystem("SYS1"))
		if err != nil {
			return nil, err
		}
		r.links = append(r.links, c)
		nodes = append(nodes, c)
	}
	return nodes, nil
}

// preload inserts every account with balance 0 from SYS1, one batch
// of preloadBatch accounts per transaction, the way a load utility
// runs on one member before work is opened to the sysplex. (Loading
// from every member at once loses rows on this codebase; the audit
// would report them as missing.)
func (r *rig) preload(ctx context.Context) error {
	sys, err := r.plex.System("SYS1")
	if err != nil {
		return err
	}
	eng := sys.Engine()
	keys := make([]string, 0, preloadBatch)
	for a := 0; a < accounts; a++ {
		keys = append(keys, accountKey(a))
		if len(keys) == preloadBatch || a == accounts-1 {
			if err := insertAll(ctx, eng, keys); err != nil {
				return err
			}
			keys = keys[:0]
		}
	}
	return nil
}

// insertAll writes keys with balance 0 in one transaction, retrying a
// transaction that loses a lock wait (the rows are idempotent).
func insertAll(ctx context.Context, eng *db.Engine, keys []string) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		tx := eng.Begin(ctx)
		err = nil
		for _, k := range keys {
			if err = tx.Put(table, k, []byte("0")); err != nil {
				break
			}
		}
		if err != nil {
			tx.Abort()
			continue
		}
		if err = tx.Commit(); err == nil {
			return nil
		}
	}
	return err
}

// balance is the BALANCE program: read one account under a share lock.
func (r *rig) balance(tx *sysplex.Tx, in []byte) ([]byte, error) {
	key, req, parent := parseInput(in)
	t := r.tr
	if req == 0 {
		t = nil
	}
	var id uint64
	var start time.Time
	if t != nil {
		id, start = t.newID(), time.Now()
	}
	v, ok, err := r.get(tx, t, req, id, key)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %s", errNoAccount, key)
	}
	if t != nil {
		t.record(req, id, parent, spanProgram, start, time.Now())
	}
	return v, err
}

// deposit is the DEPOSIT program: read an account, then write it back
// one higher, which upgrades the lock and commits three log records.
func (r *rig) deposit(tx *sysplex.Tx, in []byte) ([]byte, error) {
	key, req, parent := parseInput(in)
	t := r.tr
	if req == 0 {
		t = nil
	}
	var id uint64
	var start time.Time
	if t != nil {
		id, start = t.newID(), time.Now()
	}
	out, err := r.increment(tx, t, req, id, key)
	if t != nil {
		t.record(req, id, parent, spanProgram, start, time.Now())
	}
	return out, err
}

func (r *rig) increment(tx *sysplex.Tx, t *tracer, req, parent uint64, key string) ([]byte, error) {
	v, ok, err := r.get(tx, t, req, parent, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNoAccount, key)
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("oltpbench: account %s holds %q", key, v)
	}
	out := []byte(strconv.FormatInt(n+1, 10))
	var start time.Time
	if t != nil {
		start = time.Now()
	}
	err = tx.Put(table, key, out)
	if t != nil {
		t.record(req, t.newID(), parent, spanPut, start, time.Now())
	}
	return out, err
}

func (r *rig) get(tx *sysplex.Tx, t *tracer, req, parent uint64, key string) ([]byte, bool, error) {
	if t == nil {
		return tx.Get(table, key)
	}
	start := time.Now()
	v, ok, err := tx.Get(table, key)
	t.record(req, t.newID(), parent, spanGet, start, time.Now())
	return v, ok, err
}

// primaryRegistry is the metric registry of the facility serving as
// CFRM primary: the in-process facility itself, or the facility behind
// the primary's cflink server.
func (r *rig) primaryRegistry() *metrics.Registry {
	node := r.plex.CFRM().Primary()
	if srv, ok := r.servers[node.Name()]; ok {
		return srv.Facility().Metrics()
	}
	return node.Metrics()
}

// close stops the sysplex, the links and the CF servers, waits for the
// servers to exit and removes the work directory.
//
// Sysplex.Stop leaves each member's XCF message dispatcher running,
// and the dispatchers keep the whole stopped sysplex reachable; close
// ends them through the public XCF interface so that one round's
// memory is not carried into the next.
func (r *rig) close() {
	if r.plex != nil {
		names := r.plex.ActiveSystems()
		r.plex.Stop()
		for _, name := range names {
			if s := r.plex.XCF().System(name); s != nil {
				s.Kill()
			}
		}
	}
	for _, c := range r.links {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	r.serving.Wait()
	os.RemoveAll(r.dir)
}
