package db

import (
	"context"
	"errors"
	"testing"

	"sysplex/internal/dasd"
	"sysplex/internal/logr"
)

// TestWALAppendAndRead: records a system forces through its log are
// readable by a peer from the merged streams.
func TestWALAppendAndRead(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	ctx := context.Background()
	err := fx.engines["SYS1"].appendLog(ctx,
		&LogRecord{Tx: "T1", Kind: recUpdate, Table: "ACCT", Key: "k", After: []byte("v")},
		&LogRecord{Tx: "T1", Kind: recCommit},
	)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fx.engines["SYS2"].streamLogRecords(ctx, "SYS1")
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs = %v err=%v", recs, err)
	}
	kinds := map[string]string{}
	for _, r := range recs {
		kinds[r.Kind] = r.Key
	}
	if k, ok := kinds[recUpdate]; !ok || k != "k" {
		t.Fatalf("recs = %+v, want the update of k", recs)
	}
	if _, ok := kinds[recCommit]; !ok {
		t.Fatalf("recs = %+v, want the COMMIT", recs)
	}
}

// TestWALReopenContinues: an engine reopened on the same streams
// appends after the records already there.
func TestWALReopenContinues(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	ctx := context.Background()
	if err := fx.engines["SYS1"].appendLog(ctx, &LogRecord{Tx: "T1", Kind: recCommit}); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(ctx, Config{
		Name: "DBP1", System: "SYS1", Farm: fx.farm, Volume: "DBVOL",
		Facility: fx.fac, Locks: fx.locks["SYS1"], Logger: fx.loggers["SYS1"], PoolFrames: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.appendLog(ctx, &LogRecord{Tx: "T2", Kind: recCommit}); err != nil {
		t.Fatal(err)
	}
	recs, err := e2.streamLogRecords(ctx, "SYS1")
	if err != nil || len(recs) != 2 || recs[0].Tx != "T1" || recs[1].Tx != "T2" {
		t.Fatalf("recs = %+v err=%v", recs, err)
	}
}

// TestWALOversizeRecordRejected: a record larger than a log stream
// block is refused, not truncated.
func TestWALOversizeRecordRejected(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	err := fx.engines["SYS1"].appendLog(context.Background(),
		&LogRecord{Tx: "T", Kind: recUpdate, Table: "ACCT", After: make([]byte, dasd.BlockSize)})
	if !errors.Is(err, logr.ErrRecordTooBig) {
		t.Fatalf("oversize record: err = %v, want ErrRecordTooBig", err)
	}
}
