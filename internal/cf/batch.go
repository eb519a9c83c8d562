// Op batching: one envelope carries N keyed mutating commands through
// the command pipeline in a single traversal (DESIGN §13). The paper's
// CF commands pay one link crossing each; EXP-TRANSPORT measures that
// crossing at 20–50× the structure work, so a commit that releases N
// locks or an offload that deletes N records wants to ship one batch,
// not N frames. A Batch runs the gate, metrics, inject, and retry
// stages once, takes every ordering stripe its subcommands hash to,
// applies the whole envelope to the primary, and mirrors it to the
// secondary under a detached context — per-key ordering and the
// no-partial-effect cancellation guarantee are exactly those of the
// one-command path.
//
// Subcommand outcomes are individual: a logical failure (say
// ErrEntryNotFound on one delete) is reported in that subcommand's
// status slot and does not stop the rest of the envelope — mirroring
// the per-subcommand status bytes the link protocol carries. Only a
// facility failure (ErrCFDown) fails the batch as a whole, which is
// what lets the retry stage re-drive the entire envelope after an
// in-line failover: the replica that partially applied it is the dead
// one, so the survivors still agree.
package cf

import (
	"context"
	"errors"
	"fmt"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// MaxBatchOps bounds one batch envelope. Keeps a single envelope's
// stripe footprint and wire frame bounded; exploiters chunk above it.
const MaxBatchOps = 1024

// ValidateBatch checks an envelope against a structure model: size
// bounds and every subcommand a batchable command of that model. The
// duplexed front runs it before the pipeline, and a structure before
// applying an envelope — on a cflink server, at its trust boundary.
func ValidateBatch(model Model, cmds []BatchCmd) error {
	if len(cmds) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadArgument)
	}
	if len(cmds) > MaxBatchOps {
		return fmt.Errorf("%w: batch of %d exceeds %d subcommands", ErrBadArgument, len(cmds), MaxBatchOps)
	}
	for i := range cmds {
		op := cmds[i].Op
		if !op.Batchable() {
			return fmt.Errorf("%w: subcommand %d: %s cannot be batched", ErrBadArgument, i, op)
		}
		if m := op.Model(); m != model {
			return fmt.Errorf("%w: subcommand %d is a %s command in a %s batch",
				ErrBadArgument, i, m, model)
		}
	}
	return nil
}

// batchApply executes an envelope against one in-process structure:
// one context gate, then every subcommand in order under a detached
// context. It is the execution body behind *LockStructure.Batch,
// *CacheStructure.Batch, and *ListStructure.Batch — and therefore what
// a cflink server runs when a batch frame arrives. Subcommand begin
// gates still run (down-check, failure injection, per-command
// metrics); only the caller's cancellation is consulted batch-wide, so
// a cancellation can never split the envelope.
func batchApply(ctx context.Context, f *Facility, model Model, s structure, cmds []BatchCmd) ([]error, error) {
	if err := ValidateBatch(model, cmds); err != nil {
		return nil, err
	}
	if err := vclock.Check(ctx, f.clock); err != nil {
		return nil, err
	}
	dctx := vclock.Detach(ctx)
	errs := make([]error, len(cmds))
	for i := range cmds {
		// Batchable commands return no results, so no Result is needed.
		err := execLocal(dctx, s, model, &cmds[i], nil)
		if errors.Is(err, ErrCFDown) {
			// Facility death is batch-level: the whole envelope fails so
			// the duplexed front can fail over and re-drive it.
			return nil, err
		}
		errs[i] = err
	}
	return errs, nil
}

// Batch executes an envelope of lock-model subcommands.
func (s *LockStructure) Batch(ctx context.Context, cmds []BatchCmd) ([]error, error) {
	return batchApply(ctx, s.facility, LockModel, s, cmds)
}

// Batch executes an envelope of cache-model subcommands.
func (s *CacheStructure) Batch(ctx context.Context, cmds []BatchCmd) ([]error, error) {
	return batchApply(ctx, s.facility, CacheModel, s, cmds)
}

// Batch executes an envelope of list-model subcommands.
func (s *ListStructure) Batch(ctx context.Context, cmds []BatchCmd) ([]error, error) {
	return batchApply(ctx, s.facility, ListModel, s, cmds)
}

// batchOccBucket maps an envelope size to its occupancy bucket (the
// cfrm.batch.occ.* fixed-bound histogram: 1, 2–7, 8–31, 32–127, 128+).
func batchOccBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n < 8:
		return 1
	case n < 32:
		return 2
	case n < 128:
		return 3
	default:
		return 4
	}
}

// batchOccNames names the occupancy buckets for registry keys.
var batchOccNames = [batchOccBuckets]string{"1", "2_7", "8_31", "32_127", "128p"}

// batchOccBuckets is the occupancy bucket count.
const batchOccBuckets = 5

// connBatchCounters returns the per-connector batch attribution
// counters, cached so the hot batch path pays the registry's string
// concatenation and map lookup once per connector, not per envelope.
func (d *Duplexed) connBatchCounters(conn string) (cnt, ops *metrics.Counter) {
	if v, ok := d.batchConn.Load(conn); ok {
		p := v.(*[2]*metrics.Counter)
		return p[0], p[1]
	}
	p := &[2]*metrics.Counter{
		d.reg.Counter("cfrm.batch.count." + conn),
		d.reg.Counter("cfrm.batch.ops." + conn),
	}
	v, _ := d.batchConn.LoadOrStore(conn, p)
	pp := v.(*[2]*metrics.Counter)
	return pp[0], pp[1]
}

// countBatch is the metrics stage for an envelope: each subcommand
// counts under its own kind (pre-resolved handles), the envelope under
// cfrm.op.batch, plus occupancy buckets and per-connector attribution
// for RMF's clone sections.
func (d *Duplexed) countBatch(cmds []BatchCmd) {
	for i := range cmds {
		d.opCounters[cmds[i].Op].Inc()
	}
	d.opCounters[CmdBatch].Inc()
	d.cBatchOps.Add(int64(len(cmds)))
	d.cBatchOcc[batchOccBucket(len(cmds))].Inc()
	if conn := cmds[0].Conn; conn != "" {
		cnt, ops := d.connBatchCounters(conn)
		cnt.Inc()
		ops.Add(int64(len(cmds)))
	}
}
