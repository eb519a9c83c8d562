package main

import (
	"strings"

	"sysplex/internal/buffman"
	"sysplex/internal/db"
	"sysplex/internal/lockmgr"
	"sysplex/internal/metrics"
	"sysplex/internal/txmgr"
)

// hist is the cumulative count and sum (seconds) of one histogram,
// enough to difference two snapshots into a window mean.
type hist struct {
	n   int64
	sum float64
}

func (h hist) add(o hist) hist { return hist{h.n + o.n, h.sum + o.sum} }

// meanUS is the mean of the observations between prev and h, in µs.
func (h hist) meanUS(prev hist) float64 {
	return ratio(h.sum-prev.sum, float64(h.n-prev.n)) * 1e6
}

func histOf(r *metrics.Registry, name string) hist {
	h := r.Histogram(name)
	return hist{h.Count(), h.Sum()}
}

// counters is one reading of every layer's public counters and
// histograms. The benchmark takes one before and one after each
// measured window and reports the differences; nothing inside the
// program is instrumented for it.
type counters struct {
	region txmgr.Stats
	db     db.Stats
	locks  lockmgr.Stats
	pool   buffman.Stats
	lockH  hist // lock.latency over every member

	cfCmds int64 // cf.cmd.* on the primary facility
	cfH    hist  // cf.cmd.latency on the primary facility
	cfXI   int64

	fanout   hist // cfrm.duplex.fanout
	batchOps int64
	retried  int64

	linkCmds   int64 // over both cflink clients
	linkNotify int64
	linkH      hist
	linkP99    float64 // seconds, over the links' lifetime

	logWrites   int64
	logH        hist
	offloads    int64
	offloadH    hist
	stgAppends  int64
	fsyncs      int64
	fsyncH      hist
	dasdWrites  int64 // on SYSP01
	dasdReads   int64 // on SYSP01
	blocks      int64 // blocks allocated to datasets on every volume
	sysp01      int64 // blocks allocated on SYSP01
	xcfMsgs     int64
	rmfInterval int64
}

// read takes one reading of every layer of the rig.
func (r *rig) read() counters {
	var c counters
	for _, st := range r.plex.Stats() {
		addRegion(&c.region, st.Region)
		addDB(&c.db, st.DB)
		addLocks(&c.locks, st.Locks)
	}
	for _, name := range r.plex.ActiveSystems() {
		s, err := r.plex.System(name)
		if err != nil {
			continue
		}
		addPool(&c.pool, s.Engine().PoolStats())
		c.lockH = c.lockH.add(histOf(s.Locks().Metrics(), "lock.latency"))
	}

	fac := r.primaryRegistry().Snapshot()
	for name, v := range fac.Counters {
		if strings.HasPrefix(name, "cf.cmd.") {
			c.cfCmds += v
		}
	}
	c.cfXI = fac.Counters["cf.cache.xi"]
	if h, ok := fac.Histograms["cf.cmd.latency"]; ok {
		c.cfH = hist{h.Count, h.Sum}
	}

	cfrmReg := r.plex.CFRM().Metrics()
	c.fanout = histOf(cfrmReg, "cfrm.duplex.fanout")
	c.batchOps = cfrmReg.Counter("cfrm.batch.ops").Value()
	c.retried = cfrmReg.Counter("cfrm.cmd.retried").Value()

	for _, l := range r.links {
		reg := l.Metrics()
		c.linkCmds += reg.Counter("cflink.cmd.count").Value()
		c.linkNotify += reg.Counter("cflink.notify.count").Value()
		h := reg.Histogram("cflink.cmd.rtt")
		c.linkH = c.linkH.add(hist{h.Count(), h.Sum()})
		c.linkP99 = max(c.linkP99, h.Quantile(0.99))
	}

	lg := r.plex.LoggerMetrics()
	c.logWrites = lg.Counter("logr.write.count").Value()
	c.logH = histOf(lg, "logr.write.latency")
	c.offloads = lg.Counter("logr.offload.count").Value()
	c.offloadH = histOf(lg, "logr.offload.duration")
	c.stgAppends = lg.Counter("logr.staging.appends").Value()

	farm := r.plex.Farm()
	dm := farm.Metrics()
	c.fsyncs = dm.Counter("dasd.fsync.count").Value()
	c.fsyncH = histOf(dm, "dasd.fsync.latency")
	// SYSP01 holds the table space and the log; the couple data set
	// volumes carry heartbeat I/O that no transaction causes.
	c.dasdWrites = dm.Counter("dasd.vol.SYSP01.write").Value()
	c.dasdReads = dm.Counter("dasd.vol.SYSP01.read").Value()
	for _, name := range farm.Datasets("") {
		ds, err := farm.Dataset(name)
		if err != nil {
			continue
		}
		c.blocks += int64(ds.Blocks())
		if ds.Volume().Volser() == "SYSP01" {
			c.sysp01 += int64(ds.Blocks())
		}
	}
	xm := r.plex.XCF().Metrics()
	c.xcfMsgs = xm.Counter("xcf.msg").Value()
	if mon := r.plex.RMF(); mon != nil {
		c.rmfInterval = mon.Intervals()
	}
	return c
}

func addRegion(a *txmgr.Stats, b txmgr.Stats) {
	a.Submitted += b.Submitted
	a.LocalRuns += b.LocalRuns
	a.RoutedOut += b.RoutedOut
	a.RoutedIn += b.RoutedIn
	a.Completed += b.Completed
	a.Failed += b.Failed
	a.Retries += b.Retries
}

func addDB(a *db.Stats, b db.Stats) {
	a.Begins += b.Begins
	a.Commits += b.Commits
	a.Aborts += b.Aborts
	a.Reads += b.Reads
	a.Writes += b.Writes
}

func addLocks(a *lockmgr.Stats, b lockmgr.Stats) {
	a.Locks += b.Locks
	a.FastGrants += b.FastGrants
	a.Contentions += b.Contentions
	a.FalseContentions += b.FalseContentions
	a.RealContentions += b.RealContentions
	a.Negotiations += b.Negotiations
	a.Deadlocks += b.Deadlocks
	a.Timeouts += b.Timeouts
}

func addPool(a *buffman.Stats, b buffman.Stats) {
	a.LocalHits += b.LocalHits
	a.GlobalHits += b.GlobalHits
	a.DasdReads += b.DasdReads
	a.Writes += b.Writes
	a.Evictions += b.Evictions
	a.Castouts += b.Castouts
	a.Invalidated += b.Invalidated
}

// layerSums accumulates per-layer differences over every measured
// window of a run, so ratios are taken over the whole run.
type layerSums struct {
	tx, updates int64 // committed transactions / committed DEPOSITs
	d           counters
	// Histograms: summed window deltas.
	lockH, cfH, fanout, linkH, logH, offloadH, fsyncH hist
	linkP99                                           []float64
}

// add folds the window between before and after into the sums.
func (s *layerSums) add(before, after counters, tx, updates int64) {
	s.tx += tx
	s.updates += updates
	d := &s.d
	d.region.Submitted += after.region.Submitted - before.region.Submitted
	d.region.RoutedOut += after.region.RoutedOut - before.region.RoutedOut
	d.region.Retries += after.region.Retries - before.region.Retries
	d.db.Aborts += after.db.Aborts - before.db.Aborts
	d.locks.Locks += after.locks.Locks - before.locks.Locks
	d.locks.FastGrants += after.locks.FastGrants - before.locks.FastGrants
	d.locks.Contentions += after.locks.Contentions - before.locks.Contentions
	d.locks.FalseContentions += after.locks.FalseContentions - before.locks.FalseContentions
	d.locks.Negotiations += after.locks.Negotiations - before.locks.Negotiations
	d.locks.Timeouts += after.locks.Timeouts - before.locks.Timeouts
	d.locks.Deadlocks += after.locks.Deadlocks - before.locks.Deadlocks
	d.pool.LocalHits += after.pool.LocalHits - before.pool.LocalHits
	d.pool.GlobalHits += after.pool.GlobalHits - before.pool.GlobalHits
	d.pool.DasdReads += after.pool.DasdReads - before.pool.DasdReads
	d.pool.Evictions += after.pool.Evictions - before.pool.Evictions
	d.pool.Castouts += after.pool.Castouts - before.pool.Castouts
	d.pool.Invalidated += after.pool.Invalidated - before.pool.Invalidated
	d.cfCmds += after.cfCmds - before.cfCmds
	d.cfXI += after.cfXI - before.cfXI
	d.batchOps += after.batchOps - before.batchOps
	d.retried += after.retried - before.retried
	d.linkCmds += after.linkCmds - before.linkCmds
	d.linkNotify += after.linkNotify - before.linkNotify
	d.logWrites += after.logWrites - before.logWrites
	d.offloads += after.offloads - before.offloads
	d.stgAppends += after.stgAppends - before.stgAppends
	d.fsyncs += after.fsyncs - before.fsyncs
	d.dasdWrites += after.dasdWrites - before.dasdWrites
	d.dasdReads += after.dasdReads - before.dasdReads
	d.blocks += after.blocks - before.blocks
	d.xcfMsgs += after.xcfMsgs - before.xcfMsgs
	d.rmfInterval += after.rmfInterval - before.rmfInterval

	delta := func(a, b hist) hist { return hist{a.n - b.n, a.sum - b.sum} }
	s.lockH = s.lockH.add(delta(after.lockH, before.lockH))
	s.cfH = s.cfH.add(delta(after.cfH, before.cfH))
	s.fanout = s.fanout.add(delta(after.fanout, before.fanout))
	s.linkH = s.linkH.add(delta(after.linkH, before.linkH))
	s.logH = s.logH.add(delta(after.logH, before.logH))
	s.offloadH = s.offloadH.add(delta(after.offloadH, before.offloadH))
	s.fsyncH = s.fsyncH.add(delta(after.fsyncH, before.fsyncH))
	if after.linkH.n > 0 {
		s.linkP99 = append(s.linkP99, after.linkP99)
	}
}

// metrics derives the per-layer metrics. Shares and per-transaction
// rates use the run's committed transactions and DEPOSITs as bases.
func (s *layerSums) metrics() map[string]float64 {
	d := s.d
	tx, upd := float64(s.tx), float64(s.updates)
	perTx := func(n int64) float64 { return ratio(float64(n), tx) }
	perUpd := func(n int64) float64 { return ratio(float64(n), upd) }
	locks := float64(d.locks.Locks)
	pool := float64(d.pool.LocalHits + d.pool.GlobalHits + d.pool.DasdReads)
	return map[string]float64{
		"txmgr.routed_share":              ratio(float64(d.region.RoutedOut), float64(d.region.Submitted)),
		"txmgr.retries":                   float64(d.region.Retries),
		"db.aborts":                       float64(d.db.Aborts),
		"lockmgr.requests_per_tx":         perTx(d.locks.Locks),
		"lockmgr.fast_grant_share":        ratio(float64(d.locks.FastGrants), locks),
		"lockmgr.contentions_per_1k":      1000 * ratio(float64(d.locks.Contentions), locks),
		"lockmgr.false_contention_share":  ratio(float64(d.locks.FalseContentions), float64(d.locks.Contentions)),
		"lockmgr.negotiations_per_1k":     1000 * ratio(float64(d.locks.Negotiations), locks),
		"lockmgr.timeouts":                float64(d.locks.Timeouts),
		"lockmgr.deadlocks":               float64(d.locks.Deadlocks),
		"lockmgr.wait_us":                 s.lockH.meanUS(hist{}),
		"buffman.local_hit_share":         ratio(float64(d.pool.LocalHits), pool),
		"buffman.global_hits_per_tx":      perTx(d.pool.GlobalHits),
		"buffman.dasd_reads_per_tx":       perTx(d.pool.DasdReads),
		"buffman.invalidated_per_tx":      perTx(d.pool.Invalidated),
		"buffman.evictions_per_tx":        perTx(d.pool.Evictions),
		"buffman.castouts_per_tx":         perTx(d.pool.Castouts),
		"cf.cmds_per_tx":                  perTx(d.cfCmds),
		"cf.cmd_us":                       s.cfH.meanUS(hist{}),
		"cf.xi_per_update":                perUpd(d.cfXI),
		"cfrm.fanout_us":                  s.fanout.meanUS(hist{}),
		"cfrm.batch_ops_per_tx":           perTx(d.batchOps),
		"cfrm.retried":                    float64(d.retried),
		"cflink.cmds_per_tx":              perTx(d.linkCmds),
		"cflink.rtt_us":                   s.linkH.meanUS(hist{}),
		"cflink.rtt_p99_us":               median(s.linkP99) * 1e6,
		"cflink.notifies_per_tx":          perTx(d.linkNotify),
		"logr.writes_per_update":          perUpd(d.logWrites),
		"logr.write_us":                   s.logH.meanUS(hist{}),
		"logr.offloads":                   float64(d.offloads),
		"logr.offload_us":                 s.offloadH.meanUS(hist{}),
		"logr.staging_appends_per_update": perUpd(d.stgAppends),
		"dasd.fsyncs_per_update":          perUpd(d.fsyncs),
		"dasd.fsync_us":                   s.fsyncH.meanUS(hist{}),
		"dasd.writes_per_update":          perUpd(d.dasdWrites),
		"dasd.reads_per_tx":               perTx(d.dasdReads),
		"dasd.blocks_per_update":          perUpd(d.blocks),
		"xcf.msgs_per_tx":                 perTx(d.xcfMsgs),
		"rmf.intervals":                   float64(d.rmfInterval),
	}
}
