package cflink

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
	"sysplex/internal/wire"
)

// ErrClientClosed fails commands issued after Close.
var ErrClientClosed = errors.New("cflink: client closed")

// Option configures Dial.
type Option func(*Client)

// WithSystem declares the connecting system's name to the server. The
// name is the fencing identity: Server.Fence(name) severs this client
// and refuses its reconnects. Empty (the default) connects anonymously
// and unfenceably — fine for tools, wrong for sysplex members.
func WithSystem(name string) Option {
	return func(c *Client) { c.system = name }
}

// Client is a coupling facility reached over a cflink transport. It
// implements cf.Node, and its structure handles implement cf.Replica —
// one Exec entry that ships any command descriptor — so a remote
// facility drops into the duplexed front, cfrm policies, and the
// sysplex façade exactly where an in-process *Facility does.
//
// Failure model: any transport failure (dial loss, write error, read
// error, server-side fence or close) marks the client failed and fails
// every in-flight and subsequent command with cf.ErrCFDown. That is
// deliberately indistinguishable from the facility dying — to a
// system, a severed coupling link IS a dead CF, and the duplexed
// front's failover path handles both identically. A Client does not
// reconnect; recovery is cfrm's job, not the link's.
type Client struct {
	name   string // facility name, from the handshake
	system string
	clock  vclock.Clock
	reg    *metrics.Registry

	cmd    net.Conn
	notify net.Conn
	wmu    sync.Mutex // serializes request frames on cmd

	pmu     sync.Mutex
	pending map[uint64]chan clientResp
	nextReq atomic.Uint64

	vmu     sync.Mutex
	vectors map[uint64]*cf.BitVector
	vecIDs  map[*cf.BitVector]uint64
	nextVec uint64

	failed    atomic.Bool
	failErr   atomic.Pointer[error]
	closeOnce sync.Once

	mOps *metrics.Counter
	mRTT *metrics.Histogram
}

// clientResp is one command's outcome delivered to its waiter.
type clientResp struct {
	payload []byte // full response frame (reqID already consumed by reader)
	err     error  // transport-level failure
}

// Dial connects to a cfserver at addr over network ("tcp", "tcp4",
// "unix", ...), establishing both the command and the notification
// connection.
func Dial(network, addr string, opts ...Option) (*Client, error) {
	c := &Client{
		clock:   vclock.Real(),
		reg:     metrics.NewRegistry(),
		pending: make(map[uint64]chan clientResp),
		vectors: make(map[uint64]*cf.BitVector),
		vecIDs:  make(map[*cf.BitVector]uint64),
	}
	for _, o := range opts {
		o(c)
	}
	c.mOps = c.reg.Counter("cflink.cmd.count")
	c.mRTT = c.reg.Histogram("cflink.cmd.rtt")

	cmd, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("cflink: dial %s %s: %w", network, addr, err)
	}
	// Handshake deadlines are real time: they bound a half-open peer at
	// the link protocol level, below the simulated sysplex clock.
	cmd.SetDeadline(time.Now().Add(handshakeTimeout)) // lintwall: link handshake bound, not sysplex time
	var e wire.Encoder
	e.Buf = append(e.Buf, magic[:]...)
	e.U8(connCommand)
	e.Str(c.system)
	if err := writeFrame(cmd, e.Buf); err != nil {
		cmd.Close()
		return nil, fmt.Errorf("cflink: handshake: %w", err)
	}
	payload, err := readFrame(cmd, nil)
	if err != nil {
		cmd.Close()
		return nil, fmt.Errorf("cflink: handshake: %w", err)
	}
	d := wire.NewDecoder(payload)
	code := d.U8()
	if code != codeOK {
		detail := d.Str()
		cmd.Close()
		return nil, fmt.Errorf("cflink: handshake rejected: %w", decodeErr(code, detail))
	}
	c.name = d.Str()
	token := d.Uvarint()
	if err := d.Finish(); err != nil {
		cmd.Close()
		return nil, fmt.Errorf("cflink: handshake: %w", err)
	}
	cmd.SetDeadline(time.Time{})
	c.cmd = cmd

	nc, err := net.Dial(network, addr)
	if err != nil {
		cmd.Close()
		return nil, fmt.Errorf("cflink: dial notify %s %s: %w", network, addr, err)
	}
	nc.SetDeadline(time.Now().Add(handshakeTimeout)) // lintwall: link handshake bound, not sysplex time
	var ne wire.Encoder
	ne.Buf = append(ne.Buf, magic[:]...)
	ne.U8(connNotify)
	ne.Uvarint(token)
	if err := writeFrame(nc, ne.Buf); err != nil {
		cmd.Close()
		nc.Close()
		return nil, fmt.Errorf("cflink: notify handshake: %w", err)
	}
	npayload, err := readFrame(nc, nil)
	if err != nil || len(npayload) < 1 || npayload[0] != codeOK {
		cmd.Close()
		nc.Close()
		if err == nil {
			err = errors.New("rejected")
		}
		return nil, fmt.Errorf("cflink: notify handshake: %w", err)
	}
	nc.SetDeadline(time.Time{})
	c.notify = nc

	go c.readLoop()
	go c.notifyLoop()
	return c, nil
}

// Name returns the remote facility's name.
func (c *Client) Name() string { return c.name }

// System returns the system name this client declared at handshake.
func (c *Client) System() string { return c.system }

// Metrics exposes the client-side transport instrumentation
// (cflink.cmd.count, cflink.cmd.rtt, cflink.notify.count). The remote
// facility keeps its own registry in its own process; a Node's metrics
// are always the view from this side of the link.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Close tears the session down. In-flight commands fail with
// cf.ErrCFDown.
func (c *Client) Close() { c.fail(ErrClientClosed) }

// fail marks the client dead, severs both connections, and fails every
// in-flight command. First cause wins; later calls only re-close.
func (c *Client) fail(cause error) {
	c.closeOnce.Do(func() {
		c.failErr.Store(&cause)
		c.failed.Store(true)
		c.cmd.Close()
		c.notify.Close()
		c.pmu.Lock()
		for id, ch := range c.pending {
			delete(c.pending, id)
			ch <- clientResp{err: cf.ErrCFDown}
		}
		c.pmu.Unlock()
	})
}

// readLoop delivers response frames to their waiting commands.
func (c *Client) readLoop() {
	for {
		payload, err := readFrame(c.cmd, nil)
		if err != nil {
			c.fail(err)
			return
		}
		reqID, n := binary.Uvarint(payload)
		if n <= 0 {
			c.fail(ErrMalformed)
			return
		}
		c.pmu.Lock()
		ch := c.pending[reqID]
		delete(c.pending, reqID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- clientResp{payload: payload[n:]}
		}
	}
}

// notifyLoop applies server-pushed bit flips to the local system-owned
// vectors: the wire form of the CF flipping validity bits with no
// interrupt. Exploiters keep testing their vectors with local loads;
// the flip just arrives a link-latency later than in-process (the
// documented coherence window of a remote CF).
func (c *Client) notifyLoop() {
	mNotify := c.reg.Counter("cflink.notify.count")
	for {
		payload, err := readFrame(c.notify, nil)
		if err != nil {
			c.fail(err)
			return
		}
		d := wire.NewDecoder(payload)
		vecID := d.Uvarint()
		bit := d.Varint()
		set := d.Bool()
		if d.Finish() != nil {
			c.fail(ErrMalformed)
			return
		}
		c.vmu.Lock()
		v := c.vectors[vecID]
		c.vmu.Unlock()
		if v == nil {
			continue
		}
		mNotify.Inc()
		switch {
		case bit < 0:
			v.ClearAll()
		case set:
			v.Set(int(bit))
		default:
			v.Clear(int(bit))
		}
	}
}

// registerVector assigns (or recalls) the wire ID under which vector's
// shadow lives on the server. Returns 0 for a nil vector.
func (c *Client) registerVector(v *cf.BitVector) uint64 {
	if v == nil {
		return 0
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if id, ok := c.vecIDs[v]; ok {
		return id
	}
	c.nextVec++
	id := c.nextVec
	c.vecIDs[v] = id
	c.vectors[id] = v
	return id
}

// roundTrip sends one command and waits for its response.
//
// No-partial-effect across the wire: the context is polled here,
// BEFORE the request frame is written — a cancelled or deadline-expired
// command fails with the context's error and was never sent, so it has
// no effect on the remote facility. Once the frame is on the wire the
// wait is deliberately uncancellable: the command is executing remotely
// and the client must learn its outcome. The wait can only end with the
// response or with the link dying, which fails the command with
// cf.ErrCFDown — exactly the signal the duplexed front's failover path
// expects from a dead CF.
func (c *Client) roundTrip(ctx context.Context, op uint8, build func(e *wire.Encoder)) (*wire.Decoder, error) {
	if c.failed.Load() {
		return nil, cf.ErrCFDown
	}
	if err := vclock.Check(ctx, c.clock); err != nil {
		return nil, err
	}
	id := c.nextReq.Add(1)
	ch := make(chan clientResp, 1)
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()

	var e wire.Encoder
	e.Uvarint(id)
	e.U8(op)
	if build != nil {
		build(&e)
	}
	if len(e.Buf) > MaxFrame {
		// An oversized request never reaches the wire: fail the one
		// command cleanly instead of killing the session (writeFrame
		// would surface this as a transport death). Batches are the one
		// caller that can hit it — they chunk and retry smaller.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, fmt.Errorf("%w: %d byte request", ErrFrameTooBig, len(e.Buf))
	}
	start := c.clock.Now()
	c.wmu.Lock()
	err := writeFrame(c.cmd, e.Buf)
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		c.fail(err)
		return nil, cf.ErrCFDown
	}
	resp := <-ch
	c.mOps.Inc()
	if resp.err != nil {
		return nil, resp.err
	}
	c.mRTT.Observe(c.clock.Since(start))
	d := wire.NewDecoder(resp.payload)
	code := d.U8()
	if code != codeOK {
		detail := d.Str()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return nil, decodeErr(code, detail)
	}
	return d, nil
}

// node runs a node-level operation, or a replica lifecycle call, for
// one of cf.Node's and cf.Replica's context-free methods: there is no
// caller deadline to honour, and the round trip is bounded by the link
// lifetime (a dead link fails it with cf.ErrCFDown). The response
// decoder is returned with the status already checked.
func (c *Client) node(op uint8, build func(e *wire.Encoder)) (*wire.Decoder, error) {
	return c.roundTrip(context.Background(), op, build)
}

// nodeCall is node for operations whose response carries no fields.
func (c *Client) nodeCall(op uint8, build func(e *wire.Encoder)) error {
	d, err := c.node(op, build)
	if err != nil {
		return err
	}
	return d.Finish()
}

// ---- cf.Node ----

// StructureNames lists the remote facility's structures (nil if the
// link is down).
func (c *Client) StructureNames() []string {
	d, err := c.node(opStructureNames, nil)
	if err != nil {
		return nil
	}
	names := d.Strings()
	if d.Finish() != nil {
		return nil
	}
	return names
}

// Failed reports whether the remote facility is down — or unreachable,
// which to this system is the same thing.
func (c *Client) Failed() bool {
	if c.failed.Load() {
		return true
	}
	d, err := c.node(opFailed, nil)
	if err != nil {
		return true
	}
	failed := d.Bool()
	return d.Finish() != nil || failed
}

// Fail breaks the remote facility (failure injection over the wire:
// the CF dies, the link stays up, and every command starts returning
// ErrCFDown end-to-end).
func (c *Client) Fail() { _ = c.nodeCall(opFail, nil) }

// FailAfter arms remote failure injection after n more commands begin.
func (c *Client) FailAfter(n int) {
	_ = c.nodeCall(opFailAfter, func(e *wire.Encoder) { e.Int(n) })
}

// Deallocate frees a remote structure.
func (c *Client) Deallocate(name string) error {
	return c.nodeCall(opDeallocate, func(e *wire.Encoder) { e.Str(name) })
}

// AllocateLockStructure allocates a lock structure and returns its
// remote handle.
func (c *Client) AllocateLockStructure(name string, entries int) (cf.Lock, error) {
	err := c.nodeCall(opAllocLock, func(e *wire.Encoder) {
		e.Str(name)
		e.Int(entries)
	})
	if err != nil {
		return nil, err
	}
	return cf.LockOn(&remoteStruct{c: c, name: name, model: cf.LockModel, size: entries}), nil
}

// AllocateCacheStructure allocates a cache structure and returns its
// remote handle.
func (c *Client) AllocateCacheStructure(name string, maxEntries int) (cf.Cache, error) {
	err := c.nodeCall(opAllocCache, func(e *wire.Encoder) {
		e.Str(name)
		e.Int(maxEntries)
	})
	if err != nil {
		return nil, err
	}
	return cf.CacheOn(&remoteStruct{c: c, name: name, model: cf.CacheModel, size: maxEntries}), nil
}

// AllocateListStructure allocates a list structure and returns its
// remote handle.
func (c *Client) AllocateListStructure(name string, nLists, nLocks, maxEntries int) (cf.List, error) {
	err := c.nodeCall(opAllocList, func(e *wire.Encoder) {
		e.Str(name)
		e.Int(nLists)
		e.Int(nLocks)
		e.Int(maxEntries)
	})
	if err != nil {
		return nil, err
	}
	return cf.ListOn(&remoteStruct{c: c, name: name, model: cf.ListModel, size: nLists}), nil
}

// Structure returns the named remote structure's replica handle, or
// nil when absent (or the link is down — a dead node has no reachable
// structures).
func (c *Client) Structure(name string) cf.Replica {
	d, err := c.node(opStructInfo, func(e *wire.Encoder) { e.Str(name) })
	if err != nil {
		return nil
	}
	exists := d.Bool()
	model := cf.Model(d.Int())
	size := d.Int()
	if d.Finish() != nil || !exists {
		return nil
	}
	return &remoteStruct{c: c, name: name, model: model, size: size}
}

// Fence asks the server to fence system: its connections are severed
// and its reconnects refused. A healthy sysplex member calls this to
// cut a sick peer off from shared state before taking over its work.
func (c *Client) Fence(system string) error {
	return c.nodeCall(opFence, func(e *wire.Encoder) { e.Str(system) })
}

// remoteStruct is the wire handle of one structure replica: the
// client, the structure identity, and the fixed geometry learned at
// allocation, which serves the typed fronts' local answers (Entries,
// Lists, HashResource) without a round trip. cf.LockOn, cf.CacheOn and
// cf.ListOn put the model's typed command surface over it.
type remoteStruct struct {
	c     *Client
	name  string
	model cf.Model
	size  int
}

func (r *remoteStruct) ReplicaName() string    { return r.name }
func (r *remoteStruct) ReplicaModel() cf.Model { return r.model }
func (r *remoteStruct) ReplicaSize() int       { return r.size }

func (r *remoteStruct) ReplicaDisconnect(conn string) {
	_ = r.c.nodeCall(opStructDisconnect, func(e *wire.Encoder) { e.Str(r.name); e.Str(conn) })
}

func (r *remoteStruct) ReplicaFailConnector(conn string) {
	_ = r.c.nodeCall(opStructFailConn, func(e *wire.Encoder) { e.Str(r.name); e.Str(conn) })
}

// ReplicaCloneInto always fails with cf.ErrCloneUnsupported: cloning
// means shipping a whole-structure image out of another process, which
// the link protocol does not do. Pairs that include a remote node are
// duplexed at allocation time instead — both replicas exist from the
// first command — and after a failover they stay simplex until cfrm
// finds a pairing that can be established.
func (r *remoteStruct) ReplicaCloneInto(dst cf.Node) (cf.Replica, error) {
	return nil, cf.ErrCloneUnsupported
}

// Exec ships one descriptor as one framed request: the structure name,
// then the fields the command table lists for its kind. A batch
// envelope is one frame too — one link crossing, one request ID,
// per-subcommand statuses back — which is the transport's whole reason
// to batch: EXP-TRANSPORT prices the crossing at 20–50× the structure
// work. Descriptors are validated on this side of the link as well
// (cf.ValidateBatch for an envelope), so a malformed one is never put
// on the wire and fails exactly as it would in-process.
func (r *remoteStruct) Exec(ctx context.Context, c cf.Cmd) (cf.Reply, error) {
	if err := c.Validate(r.model); err != nil {
		return cf.Reply{}, err
	}
	d, err := r.c.roundTrip(ctx, opExec, func(e *wire.Encoder) {
		e.Str(r.name)
		encodeCmd(e, &c, r.c.registerVector)
	})
	if err != nil {
		return cf.Reply{}, err
	}
	rep := decodeReply(d, &c)
	if err := d.Finish(); err != nil {
		return cf.Reply{}, err
	}
	return rep, nil
}

// Interface conformance.
var (
	_ cf.Node    = (*Client)(nil)
	_ cf.Replica = (*remoteStruct)(nil)
)
