package cflink

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/wire"
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

// maxVectorBits bounds the shadow vector a connect request may ask the
// server to allocate; the length is peer-supplied.
const maxVectorBits = 1 << 24

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
	d := wire.NewDecoder(payload)
	var m [4]byte
	m[0], m[1], m[2], m[3] = d.U8(), d.U8(), d.U8(), d.U8()
	kind := d.U8()
	if d.Err() != nil || m != magic {
		conn.Close()
		return
	}
	switch kind {
	case connCommand:
		system := d.Str()
		if d.Finish() != nil {
			conn.Close()
			return
		}
		s.startSession(conn, system)
	case connNotify:
		token := d.Uvarint()
		if d.Finish() != nil {
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
		var e wire.Encoder
		code, detail := encodeErr(errFenced)
		e.U8(code)
		e.Str(detail)
		writeFrame(conn, e.Buf)
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
		done:     make(chan struct{}),
		vectors:  make(map[uint64]*cf.BitVector),
	}
	s.sessions[ses.id] = ses
	s.mu.Unlock()

	var e wire.Encoder
	e.U8(codeOK)
	e.Str(s.fac.Name())
	e.Uvarint(ses.id)
	if writeFrame(conn, e.Buf) != nil {
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
	var e wire.Encoder
	e.U8(codeOK)
	if writeFrame(conn, e.Buf) != nil {
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
	// done is closed by close(): it stops the notification writer.
	// notifyCh itself is never closed — commands on other goroutines
	// may still be pushing flips into it.
	done chan struct{}

	vmu     sync.Mutex
	vectors map[uint64]*cf.BitVector

	closeOnce sync.Once
}

// close severs both connections and forgets the session. Safe to call
// from any goroutine, any number of times.
func (ses *session) close() {
	ses.closeOnce.Do(func() {
		close(ses.done)
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
		d := wire.NewDecoder(payload)
		reqID := d.Uvarint()
		op := d.U8()
		if d.Err() != nil {
			// No usable request ID to answer on — protocol is broken.
			return
		}
		go ses.dispatch(reqID, op, d)
	}
}

// reply sends one response frame: on success codeOK then the result
// fields body appends (body may be nil), on failure err's status code
// and rendered message.
func (ses *session) reply(reqID uint64, body func(e *wire.Encoder), err error) {
	var e wire.Encoder
	e.Uvarint(reqID)
	if err != nil {
		code, detail := encodeErr(err)
		e.U8(code)
		e.Str(detail)
	} else {
		e.U8(codeOK)
		if body != nil {
			body(&e)
		}
	}
	ses.wmu.Lock()
	werr := writeFrame(ses.cmd, e.Buf)
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
	if vecID == 0 || length < 0 || length > maxVectorBits {
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

// notifyWriter drains the queue onto the notification connection
// until the session closes.
func (ses *session) notifyWriter(conn net.Conn) {
	for {
		var f notifyFrame
		select {
		case f = <-ses.notifyCh:
		case <-ses.done:
			return
		}
		var e wire.Encoder
		e.Uvarint(f.vec)
		e.Varint(f.bit)
		e.Bool(f.set)
		if writeFrame(conn, e.Buf) != nil {
			ses.close()
			return
		}
	}
}

// dispatch decodes and executes one request against the facility and
// sends the response. The context handed to structure commands is
// Background: the client's pipeline gate already polled the caller's
// context before the request was sent, and a cancellation arriving
// later must not produce a half-applied command on the CF — once a
// frame is on the wire the command runs to completion and the client
// learns the outcome (or loses the link and treats the CF as down).
func (ses *session) dispatch(reqID uint64, op uint8, d *wire.Decoder) {
	body, err := ses.execute(op, d)
	ses.reply(reqID, body, err)
}

// execute runs one decoded request and returns the encoder of its
// result fields. Every arm consumes its frame exactly (d.finish) before
// acting, so a malformed request has no effect.
func (ses *session) execute(op uint8, d *wire.Decoder) (func(e *wire.Encoder), error) {
	fac := ses.srv.fac
	switch op {
	// Every structure command: decode → table lookup and apply (the
	// replica's Exec) → encode. The descriptor's kind picks both the
	// request and the reply layout.
	case opExec:
		name := d.Str()
		cmd := decodeCmd(d, ses.vector, false)
		if err := d.Finish(); err != nil {
			return nil, err
		}
		r := fac.Structure(name)
		if r == nil {
			return nil, fmt.Errorf("%w: %q", cf.ErrNoStructure, name)
		}
		rep, err := r.Exec(context.Background(), cmd)
		if err != nil {
			return nil, err
		}
		return func(e *wire.Encoder) { encodeReply(e, &cmd, &rep) }, nil

	// Node-level operations.
	case opStructureNames:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		names := fac.StructureNames()
		return func(e *wire.Encoder) { e.Strings(names) }, nil
	case opFailed:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		failed := fac.Failed()
		return func(e *wire.Encoder) { e.Bool(failed) }, nil
	case opFail:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		fac.Fail()
		return nil, nil
	case opFailAfter:
		n := d.Int()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		fac.FailAfter(n)
		return nil, nil
	case opDeallocate:
		name := d.Str()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return nil, fac.Deallocate(name)
	case opAllocLock:
		name, entries := d.Str(), d.Int()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		_, err := fac.AllocateLockStructure(name, entries)
		return nil, err
	case opAllocCache:
		name, maxEntries := d.Str(), d.Int()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		_, err := fac.AllocateCacheStructure(name, maxEntries)
		return nil, err
	case opAllocList:
		name, nLists, nLocks, maxEntries := d.Str(), d.Int(), d.Int(), d.Int()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		_, err := fac.AllocateListStructure(name, nLists, nLocks, maxEntries)
		return nil, err
	case opStructInfo:
		name := d.Str()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		r := fac.Structure(name)
		if r == nil {
			return func(e *wire.Encoder) { e.Bool(false); e.Int(0); e.Int(0) }, nil
		}
		return func(e *wire.Encoder) { e.Bool(true); e.Int(int(r.ReplicaModel())); e.Int(r.ReplicaSize()) }, nil
	case opFence:
		system := d.Str()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		ses.srv.Fence(system)
		return nil, nil
	case opStructDisconnect, opStructFailConn:
		name, conn := d.Str(), d.Str()
		if err := d.Finish(); err != nil {
			return nil, err
		}
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
	default:
		return nil, fmt.Errorf("cflink: unknown opcode %d", op)
	}
}
