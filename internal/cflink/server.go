package cflink

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sysplex/internal/cf"
)

// handshakeTimeout bounds how long a fresh connection may take to send
// its handshake frame before the server drops it.
const handshakeTimeout = 5 * time.Second

// notifyQueueLen buffers bit-vector flips awaiting the session's
// notification connection. The push never blocks — it fires on the
// flipping command's goroutine while CF structure locks are held — so a
// client that stops draining overflows the queue and is severed: a
// system too sick to take its cross-invalidates must not stall the CF
// (the paper's fencing posture, applied to the link).
const notifyQueueLen = 4096

// errFenced rejects connections from a fenced system.
var errFenced = errors.New("cflink: system is fenced")

// Server serves one in-process cf.Facility over a byte-stream
// transport: the CF side of the coupling link. Sessions are identified
// by the system name the client declares at handshake; Fence severs a
// system's connections and refuses its reconnects — I/O fencing as
// actual link severing rather than a flag.
type Server struct {
	fac *cf.Facility

	mu        sync.Mutex
	listeners map[net.Listener]bool
	sessions  map[uint64]*session
	fenced    map[string]bool
	nextSess  uint64
	closed    bool
}

// NewServer wraps fac for serving. The facility keeps working
// in-process too: a server is a view onto it, not an ownership
// transfer.
func NewServer(fac *cf.Facility) *Server {
	return &Server{
		fac:       fac,
		listeners: make(map[net.Listener]bool),
		sessions:  make(map[uint64]*session),
		fenced:    make(map[string]bool),
	}
}

// Facility returns the served facility.
func (s *Server) Facility() *cf.Facility { return s.fac }

// Serve accepts sessions on l until the listener fails or the server is
// closed. It blocks; run it on its own goroutine. Multiple listeners
// (e.g. a unix socket and a TCP port) may serve one facility.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("cflink: server closed")
	}
	s.listeners[l] = true
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handshake(conn)
	}
}

// Close severs every session and stops every listener.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	s.listeners = make(map[net.Listener]bool)
	sess := make([]*session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		sess = append(sess, ses)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, ses := range sess {
		ses.close()
	}
}

// Fence cuts system off from this CF: its sessions' connections are
// closed mid-whatever-they-were-doing and future handshakes declaring
// that name are refused. This is the transport's I/O fencing — the sick
// system cannot reach shared state through this CF at all, rather than
// being trusted to honour a flag.
func (s *Server) Fence(system string) {
	if system == "" {
		return
	}
	s.mu.Lock()
	s.fenced[system] = true
	var victims []*session
	for _, ses := range s.sessions {
		if ses.system == system {
			victims = append(victims, ses)
		}
	}
	s.mu.Unlock()
	for _, ses := range victims {
		ses.close()
	}
}

// Fenced reports whether system is fenced.
func (s *Server) Fenced(system string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced[system]
}

// handshake classifies a fresh connection (command vs notification) and
// either starts a session or attaches the notification side to one.
func (s *Server) handshake(conn net.Conn) {
	// The handshake read is bounded by real time: this is link-level
	// protocol hygiene against half-open peers, not sysplex timing, so
	// the simulated clock does not apply.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) // lintwall: link handshake bound, not sysplex time
	payload, err := readFrame(conn, nil)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	d := &decoder{b: payload}
	var m [4]byte
	m[0], m[1], m[2], m[3] = d.u8(), d.u8(), d.u8(), d.u8()
	kind := d.u8()
	if d.err != nil || m != magic {
		conn.Close()
		return
	}
	switch kind {
	case connCommand:
		system := d.string()
		if d.finish() != nil {
			conn.Close()
			return
		}
		s.startSession(conn, system)
	case connNotify:
		token := d.uvarint()
		if d.finish() != nil {
			conn.Close()
			return
		}
		s.attachNotify(conn, token)
	default:
		conn.Close()
	}
}

// startSession registers a command connection as a new session and
// serves its requests.
func (s *Server) startSession(conn net.Conn, system string) {
	s.mu.Lock()
	if s.closed || (system != "" && s.fenced[system]) {
		s.mu.Unlock()
		var e encoder
		code, detail := encodeErr(errFenced)
		e.u8(code)
		e.string(detail)
		writeFrame(conn, e.b)
		conn.Close()
		return
	}
	s.nextSess++
	ses := &session{
		srv:      s,
		id:       s.nextSess,
		system:   system,
		cmd:      conn,
		notifyCh: make(chan notifyFrame, notifyQueueLen),
		vectors:  make(map[uint64]*cf.BitVector),
	}
	s.sessions[ses.id] = ses
	s.mu.Unlock()

	var e encoder
	e.u8(codeOK)
	e.string(s.fac.Name())
	e.uvarint(ses.id)
	if writeFrame(conn, e.b) != nil {
		ses.close()
		return
	}
	go ses.serve()
}

// attachNotify binds a notification connection to the session the token
// names and starts the push writer.
func (s *Server) attachNotify(conn net.Conn, token uint64) {
	s.mu.Lock()
	ses := s.sessions[token]
	s.mu.Unlock()
	if ses == nil {
		conn.Close()
		return
	}
	ses.nmu.Lock()
	if ses.notifyConn != nil {
		ses.nmu.Unlock()
		conn.Close()
		return
	}
	ses.notifyConn = conn
	ses.nmu.Unlock()
	var e encoder
	e.u8(codeOK)
	if writeFrame(conn, e.b) != nil {
		ses.close()
		return
	}
	go ses.notifyWriter(conn)
}

// drop removes ses from the server's tables.
func (s *Server) drop(ses *session) {
	s.mu.Lock()
	delete(s.sessions, ses.id)
	s.mu.Unlock()
}

// notifyFrame is one queued bit-vector flip. bit -1 encodes ClearAll.
type notifyFrame struct {
	vec uint64
	bit int64
	set bool
}

// session is one client's pair of connections plus its shadow bit
// vectors.
type session struct {
	srv    *Server
	id     uint64
	system string

	cmd net.Conn
	wmu sync.Mutex // serializes response frames on cmd

	nmu        sync.Mutex
	notifyConn net.Conn
	notifyCh   chan notifyFrame

	vmu     sync.Mutex
	vectors map[uint64]*cf.BitVector

	closeOnce sync.Once
}

// close severs both connections and forgets the session. Safe to call
// from any goroutine, any number of times.
func (ses *session) close() {
	ses.closeOnce.Do(func() {
		ses.srv.drop(ses)
		ses.cmd.Close()
		ses.nmu.Lock()
		nc := ses.notifyConn
		ses.nmu.Unlock()
		if nc != nil {
			nc.Close()
		}
		// Detach the shadow vectors' hooks so structure commands stop
		// paying for a dead session's pushes.
		ses.vmu.Lock()
		for _, v := range ses.vectors {
			v.SetNotify(nil)
		}
		ses.vmu.Unlock()
	})
}

// serve reads request frames off the command connection, dispatching
// each on its own goroutine (commands may sleep under injected link
// latency; a serial loop would serialize the whole system behind one
// slow command). Responses are matched by request ID, so completing out
// of order is fine.
func (ses *session) serve() {
	defer ses.close()
	for {
		// A fresh buffer per frame: the payload escapes to the handler
		// goroutine.
		payload, err := readFrame(ses.cmd, nil)
		if err != nil {
			return
		}
		d := &decoder{b: payload}
		reqID := d.uvarint()
		op := d.u8()
		if d.err != nil {
			// No usable request ID to answer on — protocol is broken.
			return
		}
		go ses.dispatch(reqID, op, d)
	}
}

// reply sends a success response; body (may be nil) appends the result
// fields.
func (ses *session) reply(reqID uint64, body results) {
	var e encoder
	e.uvarint(reqID)
	e.u8(codeOK)
	if body != nil {
		body(&e)
	}
	ses.wmu.Lock()
	err := writeFrame(ses.cmd, e.b)
	ses.wmu.Unlock()
	if err != nil {
		ses.close()
	}
}

// replyErr sends a failure response carrying err's status code and
// rendered message.
func (ses *session) replyErr(reqID uint64, err error) {
	code, detail := encodeErr(err)
	var e encoder
	e.uvarint(reqID)
	e.u8(code)
	e.string(detail)
	ses.wmu.Lock()
	werr := writeFrame(ses.cmd, e.b)
	ses.wmu.Unlock()
	if werr != nil {
		ses.close()
	}
}

// vector returns the session's shadow vector vecID, creating it (with a
// push hook wired to the notification queue) on first use. The shadow
// is the CF-side image of a vector living in the client process: the
// facility flips shadow bits, the hook forwards each flip, and the
// client applies it to the real system-owned vector.
func (ses *session) vector(vecID uint64, length int) *cf.BitVector {
	if vecID == 0 {
		return nil
	}
	ses.vmu.Lock()
	defer ses.vmu.Unlock()
	if v, ok := ses.vectors[vecID]; ok {
		return v
	}
	v := cf.NewBitVector(length)
	v.SetNotify(func(bit int, set bool) {
		ses.push(notifyFrame{vec: vecID, bit: int64(bit), set: set})
	})
	ses.vectors[vecID] = v
	return v
}

// push enqueues one flip for the notification writer. It runs on the
// flipping command's goroutine with structure locks held, so it must
// not block: a full queue means the client has stopped draining, and
// the session is severed (asynchronously — close takes locks push must
// not wait on).
func (ses *session) push(f notifyFrame) {
	select {
	case ses.notifyCh <- f:
	default:
		go ses.close()
	}
}

// notifyWriter drains the queue onto the notification connection.
func (ses *session) notifyWriter(conn net.Conn) {
	for f := range ses.notifyCh {
		var e encoder
		e.uvarint(f.vec)
		e.varint(f.bit)
		e.bool(f.set)
		if writeFrame(conn, e.b) != nil {
			ses.close()
			return
		}
	}
}

// dispatch decodes and executes one command against the facility,
// sending the response. The context handed to structure commands is
// Background: the client's pipeline gate already polled the caller's
// context before the request was sent, and a cancellation arriving
// later must not produce a half-applied command on the CF — once a
// frame is on the wire the command runs to completion and the client
// learns the outcome (or loses the link and treats the CF as down).
func (ses *session) dispatch(reqID uint64, op uint8, d *decoder) {
	ctx := context.Background()
	switch {
	case op == uint8(cf.CmdBatch):
		ses.dispatchBatch(ctx, reqID, d)
	case cf.CmdOp(op).Valid():
		ses.dispatchCmd(ctx, reqID, cf.CmdOp(op), d)
	default:
		body, err := ses.node(op, d)
		if err != nil {
			ses.replyErr(reqID, err)
			return
		}
		ses.reply(reqID, body)
	}
}

// results appends a response's result fields.
type results func(e *encoder)

// node runs one node-level command: decode its arguments, check the
// frame was consumed exactly, then act. It returns the encoder of the
// command's results (nil when it has none).
func (ses *session) node(op uint8, d *decoder) (results, error) {
	fac := ses.srv.fac
	var act func() (results, error)
	switch op {
	case opStructureNames:
		act = func() (results, error) {
			names := fac.StructureNames()
			return func(e *encoder) { e.strings(names) }, nil
		}
	case opFailed:
		act = func() (results, error) {
			failed := fac.Failed()
			return func(e *encoder) { e.bool(failed) }, nil
		}
	case opFail:
		act = func() (results, error) { fac.Fail(); return nil, nil }
	case opFailAfter:
		n := d.int()
		act = func() (results, error) { fac.FailAfter(n); return nil, nil }
	case opSetSyncLatency:
		ns := d.varint()
		act = func() (results, error) { fac.SetSyncLatency(time.Duration(ns)); return nil, nil }
	case opDeallocate:
		name := d.string()
		act = func() (results, error) { return nil, fac.Deallocate(name) }
	case opAllocLock:
		name, entries := d.string(), d.int()
		act = func() (results, error) {
			_, err := fac.AllocateLockStructure(name, entries)
			return nil, err
		}
	case opAllocCache:
		name, maxEntries := d.string(), d.int()
		act = func() (results, error) {
			_, err := fac.AllocateCacheStructure(name, maxEntries)
			return nil, err
		}
	case opAllocList:
		name, nLists, nLocks, maxEntries := d.string(), d.int(), d.int(), d.int()
		act = func() (results, error) {
			_, err := fac.AllocateListStructure(name, nLists, nLocks, maxEntries)
			return nil, err
		}
	case opStructInfo:
		name := d.string()
		act = func() (results, error) {
			r := fac.Structure(name)
			if r == nil {
				return func(e *encoder) { e.bool(false); e.int(0); e.int(0) }, nil
			}
			model, size := r.ReplicaModel(), 0
			switch model {
			case cf.LockModel:
				size = r.(cf.Lock).Entries()
			case cf.ListModel:
				size = r.(cf.List).Lists()
			}
			return func(e *encoder) { e.bool(true); e.int(int(model)); e.int(size) }, nil
		}
	case opFence:
		system := d.string()
		act = func() (results, error) { ses.srv.Fence(system); return nil, nil }
	case opStructDisconnect, opStructFailConn:
		name, conn := d.string(), d.string()
		act = func() (results, error) {
			r := fac.Structure(name)
			if r == nil {
				return nil, fmt.Errorf("%w: %q", cf.ErrNoStructure, name)
			}
			if op == opStructDisconnect {
				r.ReplicaDisconnect(conn)
			} else {
				r.ReplicaFailConnector(conn)
			}
			return nil, nil
		}
	default:
		return nil, fmt.Errorf("cflink: unknown opcode %d", op)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return act()
}

// dispatchCmd runs one structure command: decode the structure name
// and the command's table-declared arguments, apply it through the
// facility, and encode its table-declared results.
func (ses *session) dispatchCmd(ctx context.Context, reqID uint64, op cf.CmdOp, d *decoder) {
	name := d.string()
	x := cmdPool.Get().(*cmdStore)
	defer cmdPool.Put(x)
	x.c, x.r = cf.BatchCmd{Op: op}, cf.Result{}
	d.args(&x.c, ses.vector)
	if err := d.finish(); err != nil {
		ses.replyErr(reqID, err)
		return
	}
	rep, err := ses.srv.fac.Lookup(name, op.Model())
	if err != nil {
		ses.replyErr(reqID, err)
		return
	}
	if err := rep.Exec(ctx, &x.c, &x.r); err != nil {
		ses.replyErr(reqID, err)
		return
	}
	ses.reply(reqID, func(e *encoder) { e.result(op, &x.r) })
}

// cmdStore holds one dispatched command and its result. Exec takes
// pointers through an interface, so they would escape to the heap;
// pooling them keeps the server's per-command garbage down.
type cmdStore struct {
	c cf.BatchCmd
	r cf.Result
}

var cmdPool = sync.Pool{New: func() any { return new(cmdStore) }}

// dispatchBatch runs one batch envelope against the named structure:
// the whole envelope executes as one server-side command (the
// structure's Batch gate applies it all-or-nothing with respect to
// facility death), and the response carries one status byte per
// subcommand. The envelope's model is taken from its first subcommand;
// a mixed envelope fails the structure's own validation.
func (ses *session) dispatchBatch(ctx context.Context, reqID uint64, d *decoder) {
	name := d.string()
	cmds := d.batchCmds()
	if err := d.finish(); err != nil {
		ses.replyErr(reqID, err)
		return
	}
	if len(cmds) == 0 {
		ses.replyErr(reqID, fmt.Errorf("%w: empty batch", cf.ErrBadArgument))
		return
	}
	rep, err := ses.srv.fac.Lookup(name, cmds[0].Op.Model())
	if err != nil {
		ses.replyErr(reqID, err)
		return
	}
	errs, err := rep.Batch(ctx, cmds)
	if err != nil {
		ses.replyErr(reqID, err)
		return
	}
	ses.reply(reqID, func(e *encoder) { e.batchErrs(errs) })
}
