// The CF command table: every structure command of the three models,
// declared once (DESIGN §10).
//
// The paper gives the CF a small, fixed command set over the lock,
// cache and list models (§3.3). Each command is one cmdTable entry:
// its kind name (the cfrm.op.<kind> metric and the Op.Kind fault hooks
// see), its cflink opcode (the CmdOp value itself), its model, its
// ordering class and key, whether it may ride in a batch envelope, the
// BatchCmd fields it reads and the Result fields it fills, and how it
// applies to an in-process structure. Every other layer is derived
// from the table:
//
//   - LockCmds, CacheCmds and ListCmds are the one implementation of
//     Lock, Cache and List over an Executor: each method builds a
//     BatchCmd and hands it over. The duplexed pipeline (*pair) and a
//     cflink remote structure are both executors.
//   - the pipeline reads the order class, key and kind from the entry;
//   - batch validation reads the batch flag and model;
//   - the cflink codec encodes exactly the entry's fields, and its
//     server applies any command through Facility.Lookup and Exec.
//
// Adding a command is one table entry plus the structure method its
// apply calls (and, for exploiters, one LockCmds/CacheCmds/ListCmds
// method that builds it).
package cf

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
)

// CmdOp identifies one CF structure command. Its value is the command's
// cflink opcode byte — append, never renumber.
type CmdOp uint8

// Structure commands, grouped by model, plus the batch envelope.
const (
	CmdLockConnect  CmdOp = 20
	CmdLockObtain   CmdOp = 21
	CmdLockForce    CmdOp = 22
	CmdLockRelease  CmdOp = 23
	CmdLockInterest CmdOp = 24
	CmdLockSetRec   CmdOp = 25
	CmdLockDelRec   CmdOp = 26
	CmdLockRecords  CmdOp = 27
	CmdLockAdopt    CmdOp = 28
	CmdLockRetained CmdOp = 29

	CmdCacheConnect    CmdOp = 40
	CmdCacheRead       CmdOp = 41
	CmdCacheWrite      CmdOp = 42
	CmdCacheUnregister CmdOp = 43
	CmdCacheCoBegin    CmdOp = 44
	CmdCacheCoEnd      CmdOp = 45
	CmdCacheChanged    CmdOp = 46
	CmdCacheRegistered CmdOp = 47
	CmdCacheVersion    CmdOp = 48

	CmdListConnect    CmdOp = 60
	CmdListSetLock    CmdOp = 61
	CmdListRelLock    CmdOp = 62
	CmdListLockHolder CmdOp = 63
	CmdListWrite      CmdOp = 64
	CmdListRead       CmdOp = 65
	CmdListReadFirst  CmdOp = 66
	CmdListPop        CmdOp = 67
	CmdListDelete     CmdOp = 68
	CmdListMove       CmdOp = 69
	CmdListSetAdjunct CmdOp = 70
	CmdListLen        CmdOp = 71
	CmdListEntries    CmdOp = 72
	CmdListTotal      CmdOp = 73
	CmdListMonitor    CmdOp = 74
	CmdListUnmonitor  CmdOp = 75

	// CmdBatch is the batch envelope: it counts under cfrm.op.batch and
	// crosses the link as one frame; its subcommands are table commands.
	CmdBatch CmdOp = 90
)

// BatchCmd is one CF command: the union of every command's arguments.
// A command reads only the fields its table entry names (Fields);
// the rest stay zero.
type BatchCmd struct {
	Op   CmdOp
	Conn string // issuing connector
	Name string // lock-record resource / cache block / list entry ID
	Idx  int    // lock entry / list header (list.move: target list) / list lock entry

	Mode LockMode // lock ops

	Data    []byte // cache block / list entry payload
	Cache   bool   // cache write: retain the data in the structure
	Changed bool   // cache write: mark the block changed (castout pending)
	VecIdx  int    // cache read/write, list monitor: the connector's vector bit
	Version uint64 // cache castout-end

	Key   string // list write: entry key; list set-adjunct: the adjunct
	Order Order  // list write / move
	Cond  Cond   // conditional list commands

	Vector  *BitVector   // connect: the connector's validity / notification vector
	Records []LockRecord // lock adopt-retained
}

// Result carries one command's outputs. Each command fills the fields
// its table entry names, and leaves them zero when it fails; it does
// not touch the rest.
type Result struct {
	Obtain  ObtainResult // lock.obtain
	Read    ReadResult   // cache.read; cache.castoutbegin (Data, Version); cache.version (Version)
	Entry   ListEntry    // list.read, list.readfirst, list.pop
	Records []LockRecord // lock.records
	Names   []string     // lock.retained, cache.changedblocks, cache.registered
	Entries []ListEntry  // list.entries
	N, M    int          // lock.interest (share, excl); list.len, list.totalentries (N)
	Holder  string       // list.lockholder
}

// Fields names the BatchCmd arguments a command reads and the Result
// fields it fills. The cflink codec encodes exactly these, in bit order.
type Fields uint32

// Argument and result fields.
const (
	FConn Fields = 1 << iota
	FName
	FIdx
	FMode
	FData
	FFlags // Cache and Changed
	FVecIdx
	FVersion
	FKey
	FOrder
	FCond
	FVector
	FRecords

	RObtain
	RRead
	REntry
	RRecords
	RNames
	REntries
	RCounts // N and M
	RHolder
)

// Executor runs commands against one structure. A duplexed pair runs
// them through the pipeline, a cflink remote structure sends them over
// the link, and an in-process structure applies them through the table.
// c and r must outlive nothing but the call.
type Executor interface {
	// Exec runs one command, filling r with its results.
	Exec(ctx context.Context, c *BatchCmd, r *Result) error
	// Batch runs an envelope of batchable commands in one pass (one link
	// crossing on a transport handle). The slice holds one outcome per
	// subcommand; the error is batch-level — validation, cancellation or
	// facility failure — and then no outcome slice exists. See DESIGN §13.
	Batch(ctx context.Context, cmds []BatchCmd) ([]error, error)
}

// cmdSpec is one command's table entry.
type cmdSpec struct {
	kind   string // cfrm.op.<kind>, Op.Kind
	model  Model
	order  OpOrder
	key    byte // OpKeyed ordering key: 'e'/'l' + Idx, 'r' + Conn, 'b' + Name
	batch  bool // may ride in a batch envelope
	diag   bool // diagnostic read: primary only, bypasses the pipeline and its counters
	fields Fields
	apply  func(ctx context.Context, s structure, c *BatchCmd, r *Result) error
}

// cmdTable is the command table, indexed by opcode.
var cmdTable = [256]cmdSpec{
	CmdLockConnect: {kind: "lock.connect", model: LockModel, order: OpGlobal, fields: FConn,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*LockStructure).Connect(ctx, c.Conn)
		}},
	CmdLockObtain: {kind: "lock.obtain", model: LockModel, order: OpKeyed, key: 'e', fields: FIdx | FConn | FMode | RObtain,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Obtain, err = s.(*LockStructure).Obtain(ctx, c.Idx, c.Conn, c.Mode)
			return err
		}},
	CmdLockForce: {kind: "lock.force", model: LockModel, order: OpKeyed, key: 'e', batch: true, fields: FIdx | FConn | FMode,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*LockStructure).ForceObtain(ctx, c.Idx, c.Conn, c.Mode)
		}},
	CmdLockRelease: {kind: "lock.release", model: LockModel, order: OpKeyed, key: 'e', batch: true, fields: FIdx | FConn | FMode,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*LockStructure).Release(ctx, c.Idx, c.Conn, c.Mode)
		}},
	CmdLockInterest: {kind: "lock.interest", model: LockModel, diag: true, fields: FIdx | FConn | RCounts,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.N, r.M, err = s.(*LockStructure).Interest(c.Idx, c.Conn)
			return err
		}},
	CmdLockSetRec: {kind: "lock.setrecord", model: LockModel, order: OpKeyed, key: 'r', batch: true, fields: FConn | FName | FMode,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*LockStructure).SetRecord(ctx, c.Conn, c.Name, c.Mode)
		}},
	CmdLockDelRec: {kind: "lock.delrecord", model: LockModel, order: OpKeyed, key: 'r', batch: true, fields: FConn | FName,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*LockStructure).DeleteRecord(ctx, c.Conn, c.Name)
		}},
	CmdLockRecords: {kind: "lock.records", model: LockModel, order: OpRead, fields: FConn | RRecords,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Records, err = s.(*LockStructure).Records(ctx, c.Conn)
			return err
		}},
	CmdLockAdopt: {kind: "lock.adoptretained", model: LockModel, order: OpGlobal, fields: FConn | FRecords,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			s.(*LockStructure).AdoptRetained(c.Conn, c.Records)
			return nil
		}},
	CmdLockRetained: {kind: "lock.retained", model: LockModel, diag: true, fields: RNames,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Names = s.(*LockStructure).RetainedConnectors()
			return nil
		}},

	CmdCacheConnect: {kind: "cache.connect", model: CacheModel, order: OpGlobal, fields: FConn | FVector,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*CacheStructure).Connect(ctx, c.Conn, c.Vector)
		}},
	CmdCacheRead: {kind: "cache.read", model: CacheModel, order: OpKeyed, key: 'b', fields: FConn | FName | FVecIdx | RRead,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Read, err = s.(*CacheStructure).ReadAndRegister(ctx, c.Conn, c.Name, c.VecIdx)
			return err
		}},
	CmdCacheWrite: {kind: "cache.write", model: CacheModel, order: OpKeyed, key: 'b', batch: true,
		fields: FConn | FName | FData | FFlags | FVecIdx,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*CacheStructure).WriteAndInvalidate(ctx, c.Conn, c.Name, c.Data, c.Cache, c.Changed, c.VecIdx)
		}},
	CmdCacheUnregister: {kind: "cache.unregister", model: CacheModel, order: OpKeyed, key: 'b', batch: true, fields: FConn | FName,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*CacheStructure).Unregister(ctx, c.Conn, c.Name)
		}},
	CmdCacheCoBegin: {kind: "cache.castoutbegin", model: CacheModel, order: OpKeyed, key: 'b', fields: FConn | FName | RRead,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Read.Data, r.Read.Version, err = s.(*CacheStructure).CastoutBegin(ctx, c.Conn, c.Name)
			return err
		}},
	CmdCacheCoEnd: {kind: "cache.castoutend", model: CacheModel, order: OpKeyed, key: 'b', batch: true, fields: FConn | FName | FVersion,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*CacheStructure).CastoutEnd(ctx, c.Conn, c.Name, c.Version)
		}},
	CmdCacheChanged: {kind: "cache.changedblocks", model: CacheModel, diag: true, fields: RNames,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Names = s.(*CacheStructure).ChangedBlocks()
			return nil
		}},
	CmdCacheRegistered: {kind: "cache.registered", model: CacheModel, diag: true, fields: FName | RNames,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Names = s.(*CacheStructure).Registered(c.Name)
			return nil
		}},
	CmdCacheVersion: {kind: "cache.version", model: CacheModel, diag: true, fields: FName | RRead,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Read = ReadResult{Version: s.(*CacheStructure).Version(c.Name)}
			return nil
		}},

	CmdListConnect: {kind: "list.connect", model: ListModel, order: OpGlobal, fields: FConn | FVector,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).Connect(ctx, c.Conn, c.Vector)
		}},
	CmdListSetLock: {kind: "list.setlock", model: ListModel, order: OpGlobal, fields: FIdx | FConn,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).SetLock(ctx, c.Idx, c.Conn)
		}},
	CmdListRelLock: {kind: "list.releaselock", model: ListModel, order: OpGlobal, fields: FIdx | FConn,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).ReleaseLock(ctx, c.Idx, c.Conn)
		}},
	CmdListLockHolder: {kind: "list.lockholder", model: ListModel, diag: true, fields: FIdx | RHolder,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Holder = s.(*ListStructure).LockHolder(c.Idx)
			return nil
		}},
	CmdListWrite: {kind: "list.write", model: ListModel, order: OpKeyed, key: 'l', batch: true,
		fields: FConn | FIdx | FName | FKey | FData | FOrder | FCond,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).Write(ctx, c.Conn, c.Idx, c.Name, c.Key, c.Data, c.Order, c.Cond)
		}},
	CmdListRead: {kind: "list.read", model: ListModel, order: OpRead, fields: FConn | FName | FCond | REntry,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Entry, err = s.(*ListStructure).Read(ctx, c.Conn, c.Name, c.Cond)
			return err
		}},
	CmdListReadFirst: {kind: "list.readfirst", model: ListModel, order: OpRead, fields: FConn | FIdx | FCond | REntry,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Entry, err = s.(*ListStructure).ReadFirst(ctx, c.Conn, c.Idx, c.Cond)
			return err
		}},
	CmdListPop: {kind: "list.pop", model: ListModel, order: OpKeyed, key: 'l', fields: FConn | FIdx | FCond | REntry,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) (err error) {
			r.Entry, err = s.(*ListStructure).Pop(ctx, c.Conn, c.Idx, c.Cond)
			return err
		}},
	// Delete discovers its list through the entry, so it cannot be keyed
	// by list: it is global.
	CmdListDelete: {kind: "list.delete", model: ListModel, order: OpGlobal, batch: true, fields: FConn | FName | FCond,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).Delete(ctx, c.Conn, c.Name, c.Cond)
		}},
	CmdListMove: {kind: "list.move", model: ListModel, order: OpGlobal, fields: FConn | FName | FIdx | FOrder | FCond,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).Move(ctx, c.Conn, c.Name, c.Idx, c.Order, c.Cond)
		}},
	// Global, not keyed by entry: keyed by the entry alone it could order
	// differently than a Pop of the entry's list on the two replicas.
	CmdListSetAdjunct: {kind: "list.setadjunct", model: ListModel, order: OpGlobal, fields: FConn | FName | FKey | FCond,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).SetAdjunct(ctx, c.Conn, c.Name, c.Key, c.Cond)
		}},
	CmdListLen: {kind: "list.len", model: ListModel, diag: true, fields: FIdx | RCounts,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.N, r.M = s.(*ListStructure).Len(c.Idx), 0
			return nil
		}},
	CmdListEntries: {kind: "list.entries", model: ListModel, diag: true, fields: FIdx | REntries,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.Entries = s.(*ListStructure).Entries(c.Idx)
			return nil
		}},
	CmdListTotal: {kind: "list.totalentries", model: ListModel, diag: true, fields: RCounts,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			r.N, r.M = s.(*ListStructure).TotalEntries(), 0
			return nil
		}},
	CmdListMonitor: {kind: "list.monitor", model: ListModel, order: OpKeyed, key: 'l', fields: FConn | FIdx | FVecIdx,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			return s.(*ListStructure).Monitor(ctx, c.Conn, c.Idx, c.VecIdx)
		}},
	CmdListUnmonitor: {kind: "list.unmonitor", model: ListModel, order: OpKeyed, key: 'l', fields: FConn | FIdx,
		apply: func(ctx context.Context, s structure, c *BatchCmd, r *Result) error {
			s.(*ListStructure).Unmonitor(c.Conn, c.Idx)
			return nil
		}},

	CmdBatch: {kind: "batch"},
}

// Valid reports whether op is a structure command in the table.
func (op CmdOp) Valid() bool { return cmdTable[op].apply != nil }

// String names the command kind, e.g. "lock.obtain".
func (op CmdOp) String() string {
	if k := cmdTable[op].kind; k != "" {
		return k
	}
	return fmt.Sprintf("cmd(%d)", int(op))
}

// Model reports the structure model the command belongs to (0 for an
// unknown op).
func (op CmdOp) Model() Model { return cmdTable[op].model }

// Batchable reports whether the command may ride in a batch envelope.
func (op CmdOp) Batchable() bool { return cmdTable[op].batch }

// Fields reports the arguments the command reads and the results it
// fills.
func (op CmdOp) Fields() Fields { return cmdTable[op].fields }

// stripe hashes the ordering key — 'e' or 'l' + Idx, 'r' + Conn,
// 'b' + Name, as the table's key class says — to a pair stripe
// (FNV-1a), without building the key string.
func (c *BatchCmd) stripe() int {
	const prime = 1099511628211
	class := cmdTable[c.Op].key
	h := (uint64(14695981039346656037) ^ uint64(class)) * prime
	name := c.Name
	switch class {
	case 'r':
		name = c.Conn
	case 'e', 'l':
		var buf [20]byte
		for _, b := range strconv.AppendInt(buf[:0], int64(c.Idx), 10) {
			h = (h ^ uint64(b)) * prime
		}
		name = ""
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	return int(h & (pairStripes - 1))
}

// execLocal applies c to an in-process structure of model m through
// its table entry.
func execLocal(ctx context.Context, s structure, m Model, c *BatchCmd, r *Result) error {
	sp := &cmdTable[c.Op]
	if sp.apply == nil || sp.model != m {
		return fmt.Errorf("%w: %s command on a %s structure", ErrBadArgument, c.Op, m)
	}
	return sp.apply(ctx, s, c, r)
}

// Exec applies one lock-model command.
func (s *LockStructure) Exec(ctx context.Context, c *BatchCmd, r *Result) error {
	return execLocal(ctx, s, LockModel, c, r)
}

// Exec applies one cache-model command.
func (s *CacheStructure) Exec(ctx context.Context, c *BatchCmd, r *Result) error {
	return execLocal(ctx, s, CacheModel, c, r)
}

// Exec applies one list-model command.
func (s *ListStructure) Exec(ctx context.Context, c *BatchCmd, r *Result) error {
	return execLocal(ctx, s, ListModel, c, r)
}

// hashResource maps a lock resource name onto one of n lock table
// entries (FNV-1a), the "software hashing" of §3.3.1.
func hashResource(resource string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(resource))
	return int(h.Sum64() % uint64(n))
}

// cmdEnv is the storage one command runs in. Executors take pointers,
// and a pointer handed through an interface escapes, so the Cmds
// methods draw their command and result from a pool instead of the
// stack: the steady state allocates nothing.
type cmdEnv struct {
	c BatchCmd
	r Result
}

var envPool = sync.Pool{New: func() any { return new(cmdEnv) }}

func getEnv() *cmdEnv { return envPool.Get().(*cmdEnv) }

func (e *cmdEnv) put() { envPool.Put(e) }

// run executes the env's command on x and releases the env; for
// commands without results.
func (e *cmdEnv) run(ctx context.Context, x Executor) error {
	err := x.Exec(ctx, &e.c, &e.r)
	e.put()
	return err
}

// diag runs a context-free diagnostic command. Diagnostics fail only
// when the structure is gone, and then report zero values.
func diag(x Executor, c BatchCmd) Result {
	e := getEnv()
	e.c = c
	_ = x.Exec(context.Background(), &e.c, &e.r)
	r := e.r
	e.put()
	return r
}

// LockCmds is the Lock implementation over an Executor: the duplexed
// front's lock handle and a cflink remote lock structure.
type LockCmds struct {
	Executor
	Structure string // structure name
	Size      int    // lock table entries, fixed at allocation
}

// Name returns the structure name.
func (l *LockCmds) Name() string { return l.Structure }

// Entries returns the lock table size.
func (l *LockCmds) Entries() int { return l.Size }

// HashResource maps a resource name to a lock table entry: computed
// locally, with the facility's own hash over the same table size.
func (l *LockCmds) HashResource(resource string) int { return hashResource(resource, l.Size) }

// Connect attaches a connector.
func (l *LockCmds) Connect(ctx context.Context, conn string) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockConnect, Conn: conn}
	return e.run(ctx, l.Executor)
}

// Obtain records lock interest; the grant decision is returned.
func (l *LockCmds) Obtain(ctx context.Context, idx int, conn string, mode LockMode) (ObtainResult, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockObtain, Idx: idx, Conn: conn, Mode: mode}
	err := l.Exec(ctx, &e.c, &e.r)
	res := e.r.Obtain
	e.put()
	return res, err
}

// ForceObtain records interest unconditionally.
func (l *LockCmds) ForceObtain(ctx context.Context, idx int, conn string, mode LockMode) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockForce, Idx: idx, Conn: conn, Mode: mode}
	return e.run(ctx, l.Executor)
}

// Release drops one unit of interest.
func (l *LockCmds) Release(ctx context.Context, idx int, conn string, mode LockMode) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockRelease, Idx: idx, Conn: conn, Mode: mode}
	return e.run(ctx, l.Executor)
}

// Interest reports conn's interest counts on entry idx (a diagnostic).
//
// lintctx: a context-free diagnostic of the Lock interface.
func (l *LockCmds) Interest(idx int, conn string) (share, excl int, err error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockInterest, Idx: idx, Conn: conn}
	err = l.Exec(context.Background(), &e.c, &e.r)
	share, excl = e.r.N, e.r.M
	e.put()
	return share, excl, err
}

// SetRecord stores a persistent lock record.
func (l *LockCmds) SetRecord(ctx context.Context, conn, resource string, mode LockMode) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockSetRec, Conn: conn, Name: resource, Mode: mode}
	return e.run(ctx, l.Executor)
}

// DeleteRecord removes a persistent lock record.
func (l *LockCmds) DeleteRecord(ctx context.Context, conn, resource string) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockDelRec, Conn: conn, Name: resource}
	return e.run(ctx, l.Executor)
}

// Records reads conn's persistent lock records.
func (l *LockCmds) Records(ctx context.Context, conn string) ([]LockRecord, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockRecords, Conn: conn}
	err := l.Exec(ctx, &e.c, &e.r)
	recs := e.r.Records
	e.put()
	return recs, err
}

// AdoptRetained installs retained records for a failed connector.
//
// lintctx: recovery bookkeeping with no error path; it must complete
// regardless of any caller's deadline, so it dispatches detached.
func (l *LockCmds) AdoptRetained(conn string, recs []LockRecord) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdLockAdopt, Conn: conn, Records: recs}
	// The command never fails; an error only reflects replica loss,
	// which the failover machinery already records.
	_ = e.run(context.Background(), l.Executor)
}

// RetainedConnectors lists failed connectors with retained records.
func (l *LockCmds) RetainedConnectors() []string {
	return diag(l.Executor, BatchCmd{Op: CmdLockRetained}).Names
}

// CacheCmds is the Cache implementation over an Executor.
type CacheCmds struct {
	Executor
	Structure string // structure name
}

// Name returns the structure name.
func (c *CacheCmds) Name() string { return c.Structure }

// Connect attaches a connector and its validity vector.
func (c *CacheCmds) Connect(ctx context.Context, conn string, vector *BitVector) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheConnect, Conn: conn, Vector: vector}
	return e.run(ctx, c.Executor)
}

// ReadAndRegister registers interest in a block and returns its data.
func (c *CacheCmds) ReadAndRegister(ctx context.Context, conn, name string, vecIdx int) (ReadResult, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheRead, Conn: conn, Name: name, VecIdx: vecIdx}
	err := c.Exec(ctx, &e.c, &e.r)
	res := e.r.Read
	e.put()
	return res, err
}

// WriteAndInvalidate stores a new block version, cross-invalidating
// the other registered connectors.
func (c *CacheCmds) WriteAndInvalidate(ctx context.Context, conn, name string, data []byte, cache, changed bool, vecIdx int) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheWrite, Conn: conn, Name: name, Data: data, Cache: cache, Changed: changed, VecIdx: vecIdx}
	return e.run(ctx, c.Executor)
}

// Unregister removes interest in a block.
func (c *CacheCmds) Unregister(ctx context.Context, conn, name string) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheUnregister, Conn: conn, Name: name}
	return e.run(ctx, c.Executor)
}

// CastoutBegin claims a changed block's castout lock and returns its
// data and version.
func (c *CacheCmds) CastoutBegin(ctx context.Context, conn, name string) ([]byte, uint64, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheCoBegin, Conn: conn, Name: name}
	err := c.Exec(ctx, &e.c, &e.r)
	data, ver := e.r.Read.Data, e.r.Read.Version
	e.put()
	return data, ver, err
}

// CastoutEnd completes a castout.
func (c *CacheCmds) CastoutEnd(ctx context.Context, conn, name string, version uint64) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdCacheCoEnd, Conn: conn, Name: name, Version: version}
	return e.run(ctx, c.Executor)
}

// ChangedBlocks lists blocks pending castout.
func (c *CacheCmds) ChangedBlocks() []string {
	return diag(c.Executor, BatchCmd{Op: CmdCacheChanged}).Names
}

// Registered reports the connectors registered for a block.
func (c *CacheCmds) Registered(name string) []string {
	return diag(c.Executor, BatchCmd{Op: CmdCacheRegistered, Name: name}).Names
}

// Version returns a block's directory version.
func (c *CacheCmds) Version(name string) uint64 {
	return diag(c.Executor, BatchCmd{Op: CmdCacheVersion, Name: name}).Read.Version
}

// ListCmds is the List implementation over an Executor.
type ListCmds struct {
	Executor
	Structure string // structure name
	Size      int    // list headers, fixed at allocation
}

// Name returns the structure name.
func (l *ListCmds) Name() string { return l.Structure }

// Lists returns the number of list headers.
func (l *ListCmds) Lists() int { return l.Size }

// Connect attaches a connector and its notification vector.
func (l *ListCmds) Connect(ctx context.Context, conn string, vector *BitVector) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListConnect, Conn: conn, Vector: vector}
	return e.run(ctx, l.Executor)
}

// SetLock acquires a lock entry.
func (l *ListCmds) SetLock(ctx context.Context, idx int, conn string) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListSetLock, Idx: idx, Conn: conn}
	return e.run(ctx, l.Executor)
}

// ReleaseLock releases a lock entry.
func (l *ListCmds) ReleaseLock(ctx context.Context, idx int, conn string) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListRelLock, Idx: idx, Conn: conn}
	return e.run(ctx, l.Executor)
}

// LockHolder reports a lock entry's holder.
func (l *ListCmds) LockHolder(idx int) string {
	return diag(l.Executor, BatchCmd{Op: CmdListLockHolder, Idx: idx}).Holder
}

// Write creates or updates an entry.
func (l *ListCmds) Write(ctx context.Context, conn string, list int, id, key string, data []byte, order Order, cond Cond) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListWrite, Conn: conn, Idx: list, Name: id, Key: key, Data: data, Order: order, Cond: cond}
	return e.run(ctx, l.Executor)
}

// entry runs a command returning one list entry.
func (l *ListCmds) entry(ctx context.Context, e *cmdEnv) (ListEntry, error) {
	err := l.Exec(ctx, &e.c, &e.r)
	le := e.r.Entry
	e.put()
	return le, err
}

// Read returns a copy of an entry.
func (l *ListCmds) Read(ctx context.Context, conn, id string, cond Cond) (ListEntry, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListRead, Conn: conn, Name: id, Cond: cond}
	return l.entry(ctx, e)
}

// ReadFirst returns a list's head entry.
func (l *ListCmds) ReadFirst(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListReadFirst, Conn: conn, Idx: list, Cond: cond}
	return l.entry(ctx, e)
}

// Pop removes and returns a list's head entry.
func (l *ListCmds) Pop(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListPop, Conn: conn, Idx: list, Cond: cond}
	return l.entry(ctx, e)
}

// Delete removes an entry.
func (l *ListCmds) Delete(ctx context.Context, conn, id string, cond Cond) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListDelete, Conn: conn, Name: id, Cond: cond}
	return e.run(ctx, l.Executor)
}

// Move moves an entry to another list.
func (l *ListCmds) Move(ctx context.Context, conn, id string, toList int, order Order, cond Cond) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListMove, Conn: conn, Name: id, Idx: toList, Order: order, Cond: cond}
	return e.run(ctx, l.Executor)
}

// SetAdjunct updates an entry's adjunct area.
func (l *ListCmds) SetAdjunct(ctx context.Context, conn, id, adjunct string, cond Cond) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListSetAdjunct, Conn: conn, Name: id, Key: adjunct, Cond: cond}
	return e.run(ctx, l.Executor)
}

// Len returns a list's entry count.
func (l *ListCmds) Len(list int) int {
	return diag(l.Executor, BatchCmd{Op: CmdListLen, Idx: list}).N
}

// Entries returns copies of a list's entries.
func (l *ListCmds) Entries(list int) []ListEntry {
	return diag(l.Executor, BatchCmd{Op: CmdListEntries, Idx: list}).Entries
}

// TotalEntries returns the structure-wide entry count.
func (l *ListCmds) TotalEntries() int {
	return diag(l.Executor, BatchCmd{Op: CmdListTotal}).N
}

// Monitor registers list-transition monitoring.
func (l *ListCmds) Monitor(ctx context.Context, conn string, list int, vecIdx int) error {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListMonitor, Conn: conn, Idx: list, VecIdx: vecIdx}
	return e.run(ctx, l.Executor)
}

// Unmonitor removes list-transition monitoring.
//
// lintctx: disconnect-side bookkeeping with no error path; it must
// complete regardless of any caller's deadline, so it dispatches
// detached.
func (l *ListCmds) Unmonitor(conn string, list int) {
	e := getEnv()
	e.c = BatchCmd{Op: CmdListUnmonitor, Conn: conn, Idx: list}
	// The command never fails; an error only reflects replica loss,
	// which the failover machinery already records.
	_ = e.run(context.Background(), l.Executor)
}

// Interface conformance.
var (
	_ Lock  = (*LockCmds)(nil)
	_ Cache = (*CacheCmds)(nil)
	_ List  = (*ListCmds)(nil)
	_ Lock  = (*LockStructure)(nil)
	_ Cache = (*CacheStructure)(nil)
	_ List  = (*ListStructure)(nil)
)
