package cf_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/cflink"
)

// cmdContract is one command kind's expected identity, as the table
// had it before the table existed: its cfrm.op.* / Op.Kind name, its
// order class, and its ordering key for the sample command below
// ("" for unkeyed classes; order "diag" for diagnostics, which bypass
// the pipeline).
type cmdContract struct {
	kind, order, key string
}

var cmdContracts = map[cf.CmdOp]cmdContract{
	cf.CmdLockConnect:     {"lock.connect", "global", ""},
	cf.CmdLockObtain:      {"lock.obtain", "keyed", "e3"},
	cf.CmdLockForce:       {"lock.force", "keyed", "e3"},
	cf.CmdLockRelease:     {"lock.release", "keyed", "e3"},
	cf.CmdLockInterest:    {"lock.interest", "diag", ""},
	cf.CmdLockSetRec:      {"lock.setrecord", "keyed", "rSYSA"},
	cf.CmdLockDelRec:      {"lock.delrecord", "keyed", "rSYSA"},
	cf.CmdLockRecords:     {"lock.records", "read", ""},
	cf.CmdLockAdopt:       {"lock.adoptretained", "global", ""},
	cf.CmdLockRetained:    {"lock.retained", "diag", ""},
	cf.CmdCacheConnect:    {"cache.connect", "global", ""},
	cf.CmdCacheRead:       {"cache.read", "keyed", "bB1"},
	cf.CmdCacheWrite:      {"cache.write", "keyed", "bB1"},
	cf.CmdCacheUnregister: {"cache.unregister", "keyed", "bB1"},
	cf.CmdCacheCoBegin:    {"cache.castoutbegin", "keyed", "bB1"},
	cf.CmdCacheCoEnd:      {"cache.castoutend", "keyed", "bB1"},
	cf.CmdCacheChanged:    {"cache.changedblocks", "diag", ""},
	cf.CmdCacheRegistered: {"cache.registered", "diag", ""},
	cf.CmdCacheVersion:    {"cache.version", "diag", ""},
	cf.CmdListConnect:     {"list.connect", "global", ""},
	cf.CmdListSetLock:     {"list.setlock", "global", ""},
	cf.CmdListRelLock:     {"list.releaselock", "global", ""},
	cf.CmdListLockHolder:  {"list.lockholder", "diag", ""},
	cf.CmdListWrite:       {"list.write", "keyed", "l1"},
	cf.CmdListRead:        {"list.read", "read", ""},
	cf.CmdListReadFirst:   {"list.readfirst", "read", ""},
	cf.CmdListPop:         {"list.pop", "keyed", "l1"},
	cf.CmdListDelete:      {"list.delete", "global", ""},
	cf.CmdListMove:        {"list.move", "global", ""},
	cf.CmdListSetAdjunct:  {"list.setadjunct", "global", ""},
	cf.CmdListLen:         {"list.len", "diag", ""},
	cf.CmdListEntries:     {"list.entries", "diag", ""},
	cf.CmdListTotal:       {"list.totalentries", "diag", ""},
	cf.CmdListMonitor:     {"list.monitor", "keyed", "l1"},
	cf.CmdListUnmonitor:   {"list.unmonitor", "keyed", "l1"},
}

// sampleCmd is op's test command: connector SYSA, lock entry 3,
// resource R1, block B1, list 1 and entry e1 of the state setUp builds.
func sampleCmd(op cf.CmdOp) cf.BatchCmd {
	c := cf.BatchCmd{Op: op, Conn: "SYSA", Idx: 1, Mode: cf.Exclusive,
		Data: []byte("new"), Cache: true, Changed: true, VecIdx: 2, Version: 1,
		Key: "k9", Order: cf.FIFO, Vector: cf.NewBitVector(8),
		Records: []cf.LockRecord{{Connector: "SYSA", Resource: "R2", Mode: cf.Share}}}
	switch op.Model() {
	case cf.LockModel:
		c.Idx, c.Name = 3, "R1"
	case cf.CacheModel:
		c.Name = "B1"
	default:
		c.Name = "e1"
	}
	return c
}

// allocator is what a Facility, a Duplexed front and a cflink Client
// share: structure allocation.
type allocator interface {
	AllocateLockStructure(name string, entries int) (cf.Lock, error)
	AllocateCacheStructure(name string, maxEntries int) (cf.Cache, error)
	AllocateListStructure(name string, nLists, nLocks, maxEntries int) (cf.List, error)
}

// setUp allocates a fresh structure of op's model on a and gives it the
// same state everywhere; it returns the structure's executor.
func setUp(t *testing.T, a allocator, op cf.CmdOp, run string) cf.Executor {
	t.Helper()
	ctx := context.Background()
	name := fmt.Sprintf("S%d.%s", op, run)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	switch op.Model() {
	case cf.LockModel:
		l, err := a.AllocateLockStructure(name, 16)
		must(err)
		must(l.Connect(ctx, "SYSA"))
		must(l.Connect(ctx, "SYSB"))
		_, err = l.Obtain(ctx, 3, "SYSA", cf.Exclusive)
		must(err)
		must(l.SetRecord(ctx, "SYSA", "R1", cf.Exclusive))
		return l
	case cf.CacheModel:
		c, err := a.AllocateCacheStructure(name, 64)
		must(err)
		must(c.Connect(ctx, "SYSA", cf.NewBitVector(8)))
		must(c.WriteAndInvalidate(ctx, "SYSA", "B1", []byte("page"), true, true, 0))
		return c
	default:
		l, err := a.AllocateListStructure(name, 4, 2, 64)
		must(err)
		must(l.Connect(ctx, "SYSA", cf.NewBitVector(8)))
		must(l.Write(ctx, "SYSA", 1, "e1", "k1", []byte("d1"), cf.FIFO, cf.Cond{}))
		must(l.Write(ctx, "SYSA", 1, "e2", "k2", []byte("d2"), cf.FIFO, cf.Cond{}))
		return l
	}
}

// TestCommandTableContract walks every command kind in the table. Each
// kind must keep its name, order class and ordering key, and must give
// the same result and error on an in-process structure, through a
// duplexed pair, and across a cflink unix-socket server.
func TestCommandTableContract(t *testing.T) {
	srv := cflink.NewServer(cf.New("CF04", nil))
	sock := filepath.Join(t.TempDir(), "cf.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	client, err := cflink.Dial("unix", sock, cflink.WithSystem("SYSA"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	places := []struct {
		name string
		a    allocator
	}{
		{"facility", cf.New("CF01", nil)},
		{"duplexed", cf.NewDuplexed(nil, nil, cf.New("CF02", nil), cf.New("CF03", nil))},
		{"cflink", client},
	}

	seen := 0
	for op := 0; op < 256; op++ {
		op := cf.CmdOp(op)
		if !op.Valid() {
			if _, ok := cmdContracts[op]; ok {
				t.Errorf("opcode %d (%s) is no longer in the command table", op, cmdContracts[op].kind)
			}
			continue
		}
		seen++
		want, ok := cmdContracts[op]
		if !ok {
			t.Errorf("opcode %d (%s) has no contract entry", op, op)
			continue
		}
		c := sampleCmd(op)
		order, diag := cf.CmdOrder(op)
		gotOrder := order.String()
		if diag {
			gotOrder = "diag"
		}
		if op.String() != want.kind || gotOrder != want.order {
			t.Errorf("opcode %d: kind %s order %s, want %s %s", op, op, gotOrder, want.kind, want.order)
		}
		if want.key != "" && c.Stripe() != fnvStripe(want.key) {
			t.Errorf("%s: ordering stripe %d, want that of key %q (%d)", op, c.Stripe(), want.key, fnvStripe(want.key))
		}

		// SYSA is connected and meets the state setUp built; SYSZ is
		// not connected, so most commands fail.
		for _, conn := range []string{"SYSA", "SYSZ"} {
			var outcomes []string
			for _, p := range places {
				x := setUp(t, p.a, op, conn)
				cmd := sampleCmd(op)
				cmd.Conn = conn
				var r cf.Result
				err := x.Exec(context.Background(), &cmd, &r)
				outcomes = append(outcomes, fmt.Sprintf("err=%v result=%+v", err, r))
			}
			for i := 1; i < len(places); i++ {
				if outcomes[i] != outcomes[0] {
					t.Errorf("%s by %s differs:\n  %s: %s\n  %s: %s",
						op, conn, places[0].name, outcomes[0], places[i].name, outcomes[i])
				}
			}
		}
	}
	if seen != len(cmdContracts) {
		t.Errorf("table has %d commands, contract %d", seen, len(cmdContracts))
	}
}

// fnvStripe is the stripe a key string hashes to (FNV-1a).
func fnvStripe(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h & (cf.PairStripes - 1))
}
