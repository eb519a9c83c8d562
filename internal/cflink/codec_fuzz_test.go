package cflink

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sysplex/internal/cf"
)

// sampleCmd fills every argument field, so encoding it under any
// opcode produces that command's full request shape.
func sampleCmd(op cf.CmdOp) cf.BatchCmd {
	return cf.BatchCmd{Op: op, Conn: "SYSA", Name: "MSGQ.7", Idx: 3, Mode: cf.Exclusive,
		Data: []byte("data"), Cache: true, Changed: true, VecIdx: 5, Version: 9,
		Key: "key", Order: cf.Keyed, Cond: cf.Cond{Use: true, LockIndex: 1},
		Vector:  cf.NewBitVector(8),
		Records: []cf.LockRecord{{Connector: "SYSA", Resource: "R", Mode: cf.Share}}}
}

// sampleResult fills every result field.
var sampleResult = cf.Result{
	Obtain:  cf.ObtainResult{Holders: []string{"SYSB"}},
	Read:    cf.ReadResult{Data: []byte("page"), Hit: true, Version: 4},
	Entry:   cf.ListEntry{ID: "id", Key: "k", Data: []byte("d"), Adjunct: "a", List: 2},
	Records: []cf.LockRecord{{Connector: "SYSA", Resource: "R", Mode: cf.Share}},
	Names:   []string{"a", "b"},
	Entries: []cf.ListEntry{{ID: "x"}},
	N:       7, M: 1, Holder: "SYSC",
}

// FuzzDecoder throws arbitrary bytes at every decode shape the protocol
// uses (request headers, each command's arguments and results, batch
// envelopes, response envelopes). The invariant is total safety:
// malformed, truncated, and corrupt payloads must come back as errors —
// never a panic, never an out-of-bounds read, never a giant allocation
// from a forged element count. The corpus is seeded from the command
// table: every command's request and result, whole and truncated.
func FuzzDecoder(f *testing.F) {
	var batch []cf.BatchCmd
	for op := 0; op < 256; op++ {
		c := sampleCmd(cf.CmdOp(op))
		if !c.Op.Valid() {
			continue
		}
		var req encoder
		req.uvarint(12)
		req.u8(uint8(op))
		req.string("MSGQ")
		req.args(&c, func(*cf.BitVector) uint64 { return 1 })
		f.Add(req.b)
		f.Add(req.b[:len(req.b)/2])
		var res encoder
		res.u8(uint8(op))
		res.result(c.Op, &sampleResult)
		f.Add(res.b)
		if c.Op.Batchable() {
			batch = append(batch, c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	var counts encoder
	counts.uvarint(1 << 50)
	f.Add(counts.b)
	// Batch envelope seeds: every batchable command in one envelope, the
	// same one truncated mid-subcommand, and a forged count that
	// promises more subcommands than the payload carries (the classic
	// allocation-bomb shape the decoder must refuse).
	var bseed encoder
	bseed.batchCmds(batch)
	f.Add(bseed.b)
	f.Add(bseed.b[:len(bseed.b)/2])
	var bcount encoder
	bcount.uvarint(uint64(cf.MaxBatchOps) + 1)
	bcount.u8(uint8(cf.CmdLockRelease))
	f.Add(bcount.b)
	var berrs encoder
	berrs.batchErrs([]error{nil, cf.ErrEntryNotFound, cf.ErrCFDown})
	f.Add(berrs.b)

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Request shape: header, then the opcode's arguments.
		d := &decoder{b: payload}
		d.uvarint()
		c := cf.BatchCmd{Op: cf.CmdOp(d.u8())}
		d.string()
		d.args(&c, func(uint64, int) *cf.BitVector { return nil })
		_ = d.finish()

		// Result shape: an opcode byte, then that command's results.
		rd := &decoder{b: payload}
		var r cf.Result
		rd.result(cf.CmdOp(rd.u8()), &r)
		_ = rd.finish()

		// Every composite decoder.
		for _, dec := range []func(d *decoder){
			func(d *decoder) { d.strings() },
			func(d *decoder) { d.lockRecords() },
			func(d *decoder) { d.listEntries() },
			func(d *decoder) { d.listEntry() },
			func(d *decoder) { d.lockRecord() },
			func(d *decoder) { d.cond() },
			func(d *decoder) { d.bytes() },
			func(d *decoder) { d.varint(); d.uvarint(); d.bool() },
			func(d *decoder) {
				if cmds := d.batchCmds(); len(cmds) > cf.MaxBatchOps {
					t.Fatalf("batchCmds decoded %d subcommands > MaxBatchOps", len(cmds))
				}
			},
			func(d *decoder) {
				if errs := d.batchErrs(); len(errs) > cf.MaxBatchOps {
					t.Fatalf("batchErrs decoded %d statuses > MaxBatchOps", len(errs))
				}
			},
		} {
			dd := &decoder{b: payload}
			dec(dd)
			_ = dd.finish()
		}

		// Response-envelope shape: status code then detail.
		ed := &decoder{b: payload}
		if code := ed.u8(); code != codeOK {
			detail := ed.string()
			if ed.err == nil {
				_ = decodeErr(code, detail)
			}
		}
	})
}

// FuzzFrame feeds arbitrary byte streams to the frame reader: any input
// either yields a bounded payload or a clean error.
func FuzzFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, []byte("payload"))
	f.Add(good.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})

	f.Fuzz(func(t *testing.T, stream []byte) {
		payload, err := readFrame(bytes.NewReader(stream), nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("readFrame returned %d bytes > MaxFrame", len(payload))
		}
		if len(stream) >= 4 {
			want := binary.BigEndian.Uint32(stream[:4])
			if uint32(len(payload)) != want {
				t.Fatalf("payload %d bytes, prefix says %d", len(payload), want)
			}
		}
	})
}

// FuzzRoundTrip checks the encode→decode identity on fuzzer-chosen
// field values: whatever goes in must come out, bit-exact.
func FuzzRoundTrip(f *testing.F) {
	f.Add("conn", "res.key", int64(2), []byte("block"), true, int64(7))
	f.Add("", "", int64(-1), []byte{}, false, int64(0))

	f.Fuzz(func(t *testing.T, s1, s2 string, i1 int64, b []byte, flag bool, i2 int64) {
		var e encoder
		e.string(s1)
		e.string(s2)
		e.varint(i1)
		e.bytes(b)
		e.bool(flag)
		e.uvarint(uint64(i2))
		e.lockRecord(cf.LockRecord{Connector: s1, Resource: s2, Mode: cf.LockMode(i1)})
		e.listEntry(cf.ListEntry{ID: s1, Key: s2, Data: b, Adjunct: s2, List: int(i1)})

		d := &decoder{b: e.b}
		if got := d.string(); got != s1 {
			t.Fatalf("string = %q, want %q", got, s1)
		}
		if got := d.string(); got != s2 {
			t.Fatalf("string = %q, want %q", got, s2)
		}
		if got := d.varint(); got != i1 {
			t.Fatalf("varint = %d, want %d", got, i1)
		}
		got := d.bytes()
		if !bytes.Equal(got, b) && !(len(got) == 0 && len(b) == 0) {
			t.Fatalf("bytes = %v, want %v", got, b)
		}
		if d.bool() != flag {
			t.Fatal("bool mismatch")
		}
		if got := d.uvarint(); got != uint64(i2) {
			t.Fatalf("uvarint = %d, want %d", got, uint64(i2))
		}
		rec := d.lockRecord()
		if rec.Connector != s1 || rec.Resource != s2 || rec.Mode != cf.LockMode(i1) {
			t.Fatalf("lockRecord = %+v", rec)
		}
		le := d.listEntry()
		if le.ID != s1 || le.Key != s2 || le.Adjunct != s2 || le.List != int(i1) {
			t.Fatalf("listEntry = %+v", le)
		}
		if err := d.finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
}
