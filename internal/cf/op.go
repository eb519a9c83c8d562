// The duplexed front's command pipeline (DESIGN §10).
//
// Every command issued through a Duplexed front — one BatchCmd, or a
// batch envelope of them — runs through one loop with a fixed stage
// order:
//
//		gate → metrics → inject → route → retry
//
//	  - gate polls the context (cancellation + vclock deadline) so a dead
//	    command fails before any replica is touched;
//	  - metrics counts the command per kind (handles resolved at
//	    construction, no registry lookup on the fast path);
//	  - inject runs an optional test-installed fault hook;
//	  - route classifies the envelope (read / keyed / global) and takes
//	    the pair's ordering locks;
//	  - retry applies it to the primary, mirrors mutations to the
//	    secondary under a detached context, and re-drives it after an
//	    in-line failover, bounded by maxFailoverRetries with doubling
//	    capped backoff.
package cf

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"sysplex/internal/vclock"
)

// OpOrder classifies an Op for ordering and mirroring.
type OpOrder int

const (
	// OpRead: primary-only read; concurrent with every other command.
	OpRead OpOrder = iota
	// OpKeyed: mutating; ordered only against ops with the same key —
	// per-key ordering is all replica convergence requires.
	OpKeyed
	// OpGlobal: mutating; ordered against everything on the structure
	// (ops whose effect spans keys, e.g. Connect, list Move).
	OpGlobal
)

// String names the order class.
func (o OpOrder) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpKeyed:
		return "keyed"
	case OpGlobal:
		return "global"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Op is one CF command, or one batch envelope, as presented to a
// fault-injection hook: structure, kind and order class. The pipeline
// materializes it only when a hook is installed.
type Op struct {
	// Structure is the target structure name.
	Structure string
	// Kind identifies the command for metrics and errors, e.g.
	// "lock.obtain", or "batch" for an envelope.
	Kind string
	// Order is the op's ordering/mirroring class.
	Order OpOrder
}

// Failover retry bounds (satellite of ISSUE 5: the retry loop used to
// be unbounded). A command that still sees ErrCFDown after
// maxFailoverRetries attempts surfaces the outage wrapped with the
// attempt count.
const (
	maxFailoverRetries = 4
	retryBackoffBase   = 100 * time.Microsecond
	retryBackoffMax    = 1600 * time.Microsecond
)

// SetInject installs fn ahead of the retry and route stages: returning
// a non-nil error fails the op without touching any replica. The hook
// is handed a copy of the Op. A nil fn removes the hook.
func (d *Duplexed) SetInject(fn func(ctx context.Context, op *Op) error) {
	if fn == nil {
		d.inject.Store(nil)
		return
	}
	h := fn
	d.inject.Store(&h)
}

// Exec runs one command through the pipeline; diagnostics go straight
// to the primary, bypassing its stages and counters. A failed command
// leaves r zeroed.
func (p *pair) Exec(ctx context.Context, c *BatchCmd, r *Result) error {
	sp := &cmdTable[c.Op]
	var err error
	switch {
	case sp.apply == nil || sp.model != p.model:
		err = fmt.Errorf("%w: %s command on %s structure %q", ErrBadArgument, c.Op, p.model, p.name)
	case sp.diag:
		p.rw.RLock()
		h, herr := p.handles()
		p.rw.RUnlock()
		if err = herr; err == nil {
			err = h.pri.Exec(ctx, c, r)
		}
	default:
		_, err = p.run(ctx, c, r, nil)
	}
	if err != nil {
		*r = Result{}
	}
	return err
}

// Batch runs an envelope through the pipeline in one traversal.
func (p *pair) Batch(ctx context.Context, cmds []BatchCmd) ([]error, error) {
	if err := ValidateBatch(p.model, cmds); err != nil {
		return nil, err
	}
	return p.run(ctx, nil, nil, cmds)
}

// run executes one envelope — a single command c (cmds == nil) or a
// batch — through the pipeline stages in their fixed order: gate →
// metrics → inject → route → retry. The stages are plain statements so
// the single-command fast path adds no call frames and no heap
// allocation over applying the command directly.
//
// Route takes the ordering locks the envelope's class requires: the
// structure-global lock when any command is OpGlobal, else every
// stripe its keyed commands hash to, in ascending index (the order
// eachPair walks, so envelopes cannot deadlock each other). The locks
// are held across failover retries so a re-driven envelope keeps its
// place in the per-key order.
//
// No-partial-effect: the primary apply sees the caller's context, and
// the structure's begin gate is the only point that consults it — a
// cancellation therefore lands either before the primary mutates
// (context error, no effect anywhere) or not at all. Batch
// subcommands apply under a detached context, so a cancellation never
// splits an envelope. Once the primary has applied, the secondary
// mirror runs under a detached context so the pair cannot be split by
// a cancellation between replicas.
func (p *pair) run(ctx context.Context, c *BatchCmd, r *Result, cmds []BatchCmd) ([]error, error) {
	d := p.d
	// gate: fail cancelled or deadline-expired envelopes with the
	// context's error before any replica is touched.
	if err := vclock.Check(ctx, d.clock); err != nil {
		return nil, err
	}
	// Classify: kind, order class, and the ordering-stripe set
	// (pairStripes == 64, so the set is one word).
	op, ord, mask := CmdBatch, OpKeyed, uint64(0)
	if cmds == nil {
		op, ord = c.Op, cmdTable[c.Op].order
		if ord == OpKeyed {
			mask = 1 << uint(c.stripe())
		}
	} else {
		for i := range cmds {
			if cmdTable[cmds[i].Op].order == OpGlobal {
				ord = OpGlobal
			} else {
				mask |= 1 << uint(cmds[i].stripe())
			}
		}
	}
	// metrics: counter handles are resolved for every kind at
	// construction, so a single command costs one array read and one
	// atomic increment.
	if cmds == nil {
		d.opCounters[op].Inc()
	} else {
		d.countBatch(cmds)
	}
	// inject: run the installed fault hook, if any (tests use it to fail
	// or delay specific ops at an exact pipeline position). The Op is
	// materialized only here; the steady-state cost is one atomic load.
	if fn := d.inject.Load(); fn != nil {
		hop := Op{Structure: p.name, Kind: cmdTable[op].kind, Order: ord}
		if err := (*fn)(ctx, &hop); err != nil {
			return nil, err
		}
	}
	// route: take the ordering locks. A mirrored single command's
	// secondary results land in the scratch slot its lock makes private.
	var mirror *Result
	switch ord {
	case OpGlobal:
		p.rw.Lock()
		mirror = &p.mirror[pairStripes]
	case OpKeyed:
		p.rw.RLock()
		for m := mask; m != 0; m &= m - 1 {
			p.stripes[bits.TrailingZeros64(m)].Lock()
		}
		mirror = &p.mirror[bits.TrailingZeros64(mask)]
	default:
		p.rw.RLock()
	}
	errs, err := p.retry(ctx, c, r, cmds, ord, mirror)
	switch ord {
	case OpGlobal:
		p.rw.Unlock()
	case OpKeyed:
		for m := mask; m != 0; m &= m - 1 {
			p.stripes[bits.TrailingZeros64(m)].Unlock()
		}
		p.rw.RUnlock()
	default:
		p.rw.RUnlock()
	}
	return errs, err
}

// retry is the route stage's inner loop: apply the envelope to the
// primary and mirror mutations to the secondary; after an in-line
// failover re-drive it against the refreshed handles. The promoted
// replica never saw a failed attempt (mirrors run only after the
// primary completes), so re-driving keeps the survivors identical.
// Retries are capped; between attempts the context is re-polled (a
// cancelled command stops retrying — nothing was applied, so stopping
// is safe) and later attempts back off with a doubling, capped sleep
// on the injected clock.
func (p *pair) retry(ctx context.Context, c *BatchCmd, r *Result, cmds []BatchCmd, ord OpOrder, mirror *Result) ([]error, error) {
	d := p.d
	backoff := time.Duration(0)
	for attempt := 1; ; attempt++ {
		h, err := p.handles()
		if err != nil {
			return nil, err
		}
		start := d.clock.Now()
		var errs []error
		if cmds == nil {
			err = h.pri.Exec(ctx, c, r)
		} else {
			errs, err = h.pri.Batch(ctx, cmds)
		}
		if errors.Is(err, ErrCFDown) {
			if !d.failover(h.priNode) {
				return nil, err
			}
			if attempt >= maxFailoverRetries {
				kind := CmdBatch
				if cmds == nil {
					kind = c.Op
				}
				return nil, fmt.Errorf("cf: %s on %q failed after %d failover retries: %w",
					kind, p.name, attempt, ErrCFDown)
			}
			d.cRetried.Inc()
			if cerr := vclock.Check(ctx, d.clock); cerr != nil {
				return nil, cerr
			}
			if backoff > 0 {
				d.clock.Sleep(backoff)
			}
			if backoff = backoff * 2; backoff < retryBackoffBase {
				backoff = retryBackoffBase
			} else if backoff > retryBackoffMax {
				backoff = retryBackoffMax
			}
			continue
		}
		// The primary's begin gate rejected the command, or the envelope
		// failed batch-level: nothing applied anywhere. Mirroring it would
		// apply it on the secondary only (the detached mirror context
		// cannot be cancelled) and manufacture divergence.
		if err != nil && (cmds != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, err
		}
		if ord != OpRead && h.sec != nil {
			sctx := vclock.Detach(ctx)
			if cmds == nil {
				if serr := h.sec.Exec(sctx, c, mirror); !sameOutcome(err, serr) {
					d.breakDuplex(h.secNode)
				}
			} else if serrs, serr := h.sec.Batch(sctx, cmds); serr != nil || !sameOutcomes(errs, serrs) {
				d.breakDuplex(h.secNode)
			}
			d.hFanout.Observe(d.clock.Since(start))
		}
		return errs, err
	}
}

// sameOutcome reports whether primary and secondary completed a
// mirrored command identically (both clean, or the same error).
func sameOutcome(perr, serr error) bool {
	if (perr == nil) != (serr == nil) {
		return false
	}
	return perr == nil || perr.Error() == serr.Error()
}

// sameOutcomes is sameOutcome over an envelope's subcommands.
func sameOutcomes(perrs, serrs []error) bool {
	if len(perrs) != len(serrs) {
		return false
	}
	for i := range perrs {
		if !sameOutcome(perrs[i], serrs[i]) {
			return false
		}
	}
	return true
}
