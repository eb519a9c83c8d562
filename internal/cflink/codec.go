// Package cflink is the CF transport subsystem: it runs a coupling
// facility in its own process and connects systems to it over a real
// byte stream (TCP or unix sockets), the repo's stand-in for the
// paper's coupling links (§3.3). A Server wraps an in-process
// cf.Facility and serves its command set; a Client implements cf.Node
// and the three structure-model command interfaces, so the duplexed
// front, cfrm duplexing, in-line failover, and the
// gate→metrics→inject→retry→route pipeline all work unchanged over the
// wire (DESIGN §11).
//
// Wire format. Every message is one frame: a 4-byte big-endian length
// followed by that many payload bytes, capped at MaxFrame. A session
// has two connections:
//
//   - the command connection carries request frames (uvarint request
//     ID, 1-byte opcode, op-specific fields) and matching response
//     frames (request ID, 1-byte status — 0 ok, else an error code
//     mapping to a cf sentinel — then results or a detail string);
//     responses may arrive out of request order.
//   - the notification connection carries server-pushed bit-vector
//     flips (vector ID, zigzag bit index with -1 meaning ClearAll, new
//     state), the wire form of the CF flipping bits in system-owned
//     vectors with no interrupt: cross-invalidates and list
//     transitions reach the client without a command round trip.
//
// Scalar fields are uvarints (zigzag varints where signed); strings and
// byte blocks are length-prefixed. The codec never panics on malformed
// input: truncated, oversized, or corrupt frames fail with an error
// (fuzzed in codec_fuzz_test.go).
package cflink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sysplex/internal/cf"
)

// MaxFrame bounds one frame's payload. Large enough for any structure
// command (cache blocks and list payloads are KB-class); small enough
// that a corrupt length prefix cannot balloon allocation.
const MaxFrame = 1 << 20

// Frame-level errors.
var (
	ErrFrameTooBig = errors.New("cflink: frame exceeds MaxFrame")
	ErrMalformed   = errors.New("cflink: malformed frame")
)

// magic opens every session's first frame on both connection kinds.
var magic = [4]byte{'C', 'F', 'L', '1'}

// Connection kinds declared in the session handshake.
//
// lintwire: table connkinds
const (
	connCommand uint8 = 0
	connNotify  uint8 = 1
)

// Node-level opcodes. Numeric values are the wire protocol — append,
// never renumber. Structure commands travel under their cf.CmdOp value,
// the opcode the command table assigns (20–75); the batch envelope
// under cf.CmdBatch (90).
//
// lintwire: table opcodes
const (
	opStructureNames   uint8 = 1
	opFailed           uint8 = 2
	opFail             uint8 = 3
	opFailAfter        uint8 = 4
	opSetSyncLatency   uint8 = 5
	opDeallocate       uint8 = 6
	opAllocLock        uint8 = 7
	opAllocCache       uint8 = 8
	opAllocList        uint8 = 9
	opStructInfo       uint8 = 10
	opFence            uint8 = 11
	opStructDisconnect uint8 = 12
	opStructFailConn   uint8 = 13
)

// Response status codes. 0 is success; the rest map to the cf command
// sentinels so errors.Is works across the wire. The constants work
// positionally through codeSentinels, so sysplexlint checks the bytes
// for collisions and the sentinel table for coverage.
//
// lintwire: table statuses
const (
	codeOK uint8 = iota
	codeCFDown
	codeNoStructure
	codeWrongModel
	codeExists
	codeStorage
	codeNotConnected
	codeLockHeld
	codeEntryNotFound
	codeListFull
	codeCacheFull
	codeBadArgument
	codeCloneUnsupported

	// codeOther carries errors with no sentinel: the detail string is
	// all the client gets.
	codeOther uint8 = 255
)

// codeSentinels maps status codes to cf sentinel errors (index = code);
// sysplexlint fails the build if a status constant below the codeOther
// catch-all has no entry here.
//
// lintwire: index-of statuses
var codeSentinels = []error{
	nil,
	cf.ErrCFDown,
	cf.ErrNoStructure,
	cf.ErrWrongModel,
	cf.ErrExists,
	cf.ErrStorage,
	cf.ErrNotConnected,
	cf.ErrLockHeld,
	cf.ErrEntryNotFound,
	cf.ErrListFull,
	cf.ErrCacheFull,
	cf.ErrBadArgument,
	cf.ErrCloneUnsupported,
}

// encodeErr classifies err for the wire: the sentinel's status code
// plus the full rendered message as detail.
func encodeErr(err error) (code uint8, detail string) {
	for c := 1; c < len(codeSentinels); c++ {
		if errors.Is(err, codeSentinels[c]) {
			return uint8(c), err.Error()
		}
	}
	return codeOther, err.Error()
}

// wireError is a decoded command failure: the server's rendered message
// with the matching cf sentinel restored for errors.Is.
type wireError struct {
	sentinel error
	detail   string
}

func (e *wireError) Error() string { return e.detail }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeErr reconstructs a command error from its wire form.
func decodeErr(code uint8, detail string) error {
	if int(code) < len(codeSentinels) && code != codeOK {
		s := codeSentinels[code]
		if detail == "" || detail == s.Error() {
			return s
		}
		return &wireError{sentinel: s, detail: detail}
	}
	if detail == "" {
		detail = fmt.Sprintf("cflink: remote error (code %d)", code)
	}
	return errors.New(detail)
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough. An
// oversized length prefix fails with ErrFrameTooBig before any payload
// allocation.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encoder appends wire-format fields to a payload buffer. It cannot
// fail; size limits are enforced at frame-write time.
type encoder struct {
	b []byte
}

func (e *encoder) u8(v uint8)       { e.b = append(e.b, v) }
func (e *encoder) bool(v bool)      { e.b = append(e.b, boolByte(v)) }
func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) int(v int)        { e.varint(int64(v)) }

func (e *encoder) bytes(v []byte) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

func (e *encoder) string(v string) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decoder consumes wire-format fields from a payload. Errors are
// sticky: after the first malformed field every subsequent read returns
// a zero value, so decode call sites check err once at the end. It
// never panics and never reads past the payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:])
	d.off += int(n)
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

// finish reports a decode error if any field was malformed or trailing
// bytes remain (a frame must be consumed exactly).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return nil
}

// stringSlice encoding: uvarint count, then each string.

func (e *encoder) strings(v []string) {
	e.uvarint(uint64(len(v)))
	for _, s := range v {
		e.string(s)
	}
}

func (d *decoder) strings() []string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		// Each element costs ≥ 1 byte, so count can never exceed the
		// remaining payload — reject before allocating.
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.string())
	}
	return out
}

// LockRecord encoding.

func (e *encoder) lockRecord(r cf.LockRecord) {
	e.string(r.Connector)
	e.string(r.Resource)
	e.int(int(r.Mode))
}

func (d *decoder) lockRecord() cf.LockRecord {
	return cf.LockRecord{
		Connector: d.string(),
		Resource:  d.string(),
		Mode:      cf.LockMode(d.int()),
	}
}

func (e *encoder) lockRecords(rs []cf.LockRecord) {
	e.uvarint(uint64(len(rs)))
	for _, r := range rs {
		e.lockRecord(r)
	}
}

func (d *decoder) lockRecords() []cf.LockRecord {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	out := make([]cf.LockRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.lockRecord())
	}
	return out
}

// ListEntry encoding.

func (e *encoder) listEntry(le cf.ListEntry) {
	e.string(le.ID)
	e.string(le.Key)
	e.bytes(le.Data)
	e.string(le.Adjunct)
	e.int(le.List)
}

func (d *decoder) listEntry() cf.ListEntry {
	return cf.ListEntry{
		ID:      d.string(),
		Key:     d.string(),
		Data:    d.bytes(),
		Adjunct: d.string(),
		List:    d.int(),
	}
}

func (e *encoder) listEntries(es []cf.ListEntry) {
	e.uvarint(uint64(len(es)))
	for _, le := range es {
		e.listEntry(le)
	}
}

func (d *decoder) listEntries() []cf.ListEntry {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	out := make([]cf.ListEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.listEntry())
	}
	return out
}

// Cond encoding.

func (e *encoder) cond(c cf.Cond) {
	e.bool(c.Use)
	e.int(c.LockIndex)
}

func (d *decoder) cond() cf.Cond {
	return cf.Cond{Use: d.bool(), LockIndex: d.int()}
}

// Command encoding. A command carries exactly the argument fields its
// table entry names, in Fields bit order; its response carries exactly
// the result fields. A batch subcommand is a 1-byte opcode followed by
// its arguments.

// args encodes c's argument fields. Connect's vector travels as the
// client's vector ID and length (vec maps the vector to its ID); the
// server binds a shadow vector to them.
func (e *encoder) args(c *cf.BatchCmd, vec func(*cf.BitVector) uint64) {
	f := c.Op.Fields()
	if f&cf.FConn != 0 {
		e.string(c.Conn)
	}
	if f&cf.FName != 0 {
		e.string(c.Name)
	}
	if f&cf.FIdx != 0 {
		e.int(c.Idx)
	}
	if f&cf.FMode != 0 {
		e.int(int(c.Mode))
	}
	if f&cf.FData != 0 {
		e.bytes(c.Data)
	}
	if f&cf.FFlags != 0 {
		e.bool(c.Cache)
		e.bool(c.Changed)
	}
	if f&cf.FVecIdx != 0 {
		e.int(c.VecIdx)
	}
	if f&cf.FVersion != 0 {
		e.uvarint(c.Version)
	}
	if f&cf.FKey != 0 {
		e.string(c.Key)
	}
	if f&cf.FOrder != 0 {
		e.int(int(c.Order))
	}
	if f&cf.FCond != 0 {
		e.cond(c.Cond)
	}
	if f&cf.FVector != 0 {
		var id uint64
		n := 0
		if c.Vector != nil && vec != nil {
			id, n = vec(c.Vector), c.Vector.Len()
		}
		e.uvarint(id)
		e.int(n)
	}
	if f&cf.FRecords != 0 {
		e.lockRecords(c.Records)
	}
}

// args decodes the argument fields of c.Op into c; vec binds a vector
// ID and length to the server-side shadow vector (nil leaves Vector
// unset).
func (d *decoder) args(c *cf.BatchCmd, vec func(id uint64, n int) *cf.BitVector) {
	f := c.Op.Fields()
	if f&cf.FConn != 0 {
		c.Conn = d.string()
	}
	if f&cf.FName != 0 {
		c.Name = d.string()
	}
	if f&cf.FIdx != 0 {
		c.Idx = d.int()
	}
	if f&cf.FMode != 0 {
		c.Mode = cf.LockMode(d.int())
	}
	if f&cf.FData != 0 {
		c.Data = d.bytes()
	}
	if f&cf.FFlags != 0 {
		c.Cache = d.bool()
		c.Changed = d.bool()
	}
	if f&cf.FVecIdx != 0 {
		c.VecIdx = d.int()
	}
	if f&cf.FVersion != 0 {
		c.Version = d.uvarint()
	}
	if f&cf.FKey != 0 {
		c.Key = d.string()
	}
	if f&cf.FOrder != 0 {
		c.Order = cf.Order(d.int())
	}
	if f&cf.FCond != 0 {
		c.Cond = d.cond()
	}
	if f&cf.FVector != 0 {
		id, n := d.uvarint(), d.int()
		if d.err == nil && vec != nil {
			c.Vector = vec(id, n)
		}
	}
	if f&cf.FRecords != 0 {
		c.Records = d.lockRecords()
	}
}

// result encodes the result fields op fills.
func (e *encoder) result(op cf.CmdOp, r *cf.Result) {
	f := op.Fields()
	if f&cf.RObtain != 0 {
		e.bool(r.Obtain.Granted)
		e.strings(r.Obtain.Holders)
	}
	if f&cf.RRead != 0 {
		e.bytes(r.Read.Data)
		e.bool(r.Read.Hit)
		e.uvarint(r.Read.Version)
	}
	if f&cf.REntry != 0 {
		e.listEntry(r.Entry)
	}
	if f&cf.RRecords != 0 {
		e.lockRecords(r.Records)
	}
	if f&cf.RNames != 0 {
		e.strings(r.Names)
	}
	if f&cf.REntries != 0 {
		e.listEntries(r.Entries)
	}
	if f&cf.RCounts != 0 {
		e.int(r.N)
		e.int(r.M)
	}
	if f&cf.RHolder != 0 {
		e.string(r.Holder)
	}
}

// result decodes the result fields op fills into r.
func (d *decoder) result(op cf.CmdOp, r *cf.Result) {
	f := op.Fields()
	if f&cf.RObtain != 0 {
		r.Obtain = cf.ObtainResult{Granted: d.bool(), Holders: d.strings()}
	}
	if f&cf.RRead != 0 {
		r.Read = cf.ReadResult{Data: d.bytes(), Hit: d.bool(), Version: d.uvarint()}
	}
	if f&cf.REntry != 0 {
		r.Entry = d.listEntry()
	}
	if f&cf.RRecords != 0 {
		r.Records = d.lockRecords()
	}
	if f&cf.RNames != 0 {
		r.Names = d.strings()
	}
	if f&cf.REntries != 0 {
		r.Entries = d.listEntries()
	}
	if f&cf.RCounts != 0 {
		r.N, r.M = d.int(), d.int()
	}
	if f&cf.RHolder != 0 {
		r.Holder = d.string()
	}
}

func (e *encoder) batchCmds(cmds []cf.BatchCmd) {
	e.uvarint(uint64(len(cmds)))
	for i := range cmds {
		e.u8(uint8(cmds[i].Op))
		e.args(&cmds[i], nil)
	}
}

func (d *decoder) batchCmds() []cf.BatchCmd {
	n := d.uvarint()
	// Each subcommand costs ≥ 1 byte; additionally a well-formed
	// envelope never exceeds MaxBatchOps — reject both before
	// allocating.
	if d.err != nil || n > uint64(len(d.b)-d.off) || n > cf.MaxBatchOps {
		d.fail()
		return nil
	}
	out := make([]cf.BatchCmd, n)
	for i := range out {
		c := &out[i]
		// Only batchable commands are decoded: their fields carry no
		// vector, and anything else cannot be framed as a subcommand.
		if c.Op = cf.CmdOp(d.u8()); !c.Op.Batchable() {
			d.fail()
			return nil
		}
		d.args(c, nil)
	}
	return out
}

// Batch status encoding: one status byte per subcommand; non-OK
// statuses carry the rendered detail string.

func (e *encoder) batchErrs(errs []error) {
	e.uvarint(uint64(len(errs)))
	for _, err := range errs {
		if err == nil {
			e.u8(codeOK)
			continue
		}
		code, detail := encodeErr(err)
		e.u8(code)
		e.string(detail)
	}
}

func (d *decoder) batchErrs() []error {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) || n > cf.MaxBatchOps {
		d.fail()
		return nil
	}
	out := make([]error, 0, n)
	for i := uint64(0); i < n; i++ {
		code := d.u8()
		if code == codeOK {
			out = append(out, nil)
			continue
		}
		out = append(out, decodeErr(code, d.string()))
	}
	return out
}
