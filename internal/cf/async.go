// Asynchronous command dispatch with completion vectors (DESIGN §13).
//
// The paper gives CF commands an explicit asynchronous execution mode:
// the CPU issues the command and continues, and completion is observed
// by testing a bit — the same no-interrupt bit-vector idiom that
// delivers cross-invalidates. The reproduction mirrors that shape: an
// AsyncCtx owns a completion BitVector with one bit per in-flight
// command slot and a small fixed dispatcher pool standing in for the
// link engines. Run issues an envelope and returns a Completion handle
// bound to a slot; the dispatcher flips the slot's bit when the
// command completes; callers poll Done (a vector test) or park in
// Wait. There is deliberately no goroutine per command — in-flight
// concurrency is bounded by the slot count, like real subchannels.
//
// Completions carry the same error sentinels as synchronous dispatch,
// and the underlying execution is the pair's pipeline (Exec of one
// envelope), so every command is async-capable and the no-partial-effect
// cancellation guarantee and failover retry hold unchanged. A
// Completion must be retrieved (Wait, Err, or Reply) — an abandoned
// handle both leaks its slot and drops a possible CF error, which the
// cferr analyzer flags.
package cf

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sysplex/internal/metrics"
)

// Async dispatch errors.
var (
	// ErrAsyncPending is returned by Completion.Err while the command is
	// still in flight.
	ErrAsyncPending = errors.New("cf: asynchronous command still in flight")
	// ErrAsyncClosed is returned by Run after Close.
	ErrAsyncClosed = errors.New("cf: async context closed")
)

// asyncWorkers is the dispatcher pool size per AsyncCtx (the "link
// engines" draining the issue queue).
const asyncWorkers = 4

// defaultAsyncSlots is the slot count when NewAsync is given none.
const defaultAsyncSlots = 64

// asyncSlot is one in-flight command's state. Between issue and
// retrieval the slot belongs to exactly one Completion.
type asyncSlot struct {
	ctx   context.Context
	name  string
	cmd   Cmd   // the envelope
	reply Reply // its outcome
	err   error
	seq   uint64 // issue sequence, guards against stale handles
}

// AsyncCtx is one connector's asynchronous dispatch context: a
// completion vector, a bounded slot table, and a fixed worker pool.
// Obtain one from Duplexed.NewAsync. Safe for concurrent use.
type AsyncCtx struct {
	d     *Duplexed
	owner string

	vec   *BitVector // completion vector: bit i set ⇔ slot i complete
	queue chan int   // issued slot indexes awaiting a dispatcher

	gInFlight *metrics.Gauge // cfrm.async.inflight.<owner>
	gTotal    *metrics.Gauge // cfrm.async.inflight (front-wide)

	mu     sync.Mutex // lintlock: level=70
	cond   *sync.Cond // broadcast on completion, slot release, close
	slots  []asyncSlot
	free   []int
	seq    uint64
	closed bool
}

// NewAsync builds an asynchronous dispatch context for one connector
// (owner names it in the cfrm.async.inflight.<owner> gauge; RMF
// samples per-system in-flight depth from it). slots bounds in-flight
// commands (defaultAsyncSlots when <= 0); Run blocks when all slots
// are in flight, which is the architectural backpressure — real
// subchannels are finite too.
func (d *Duplexed) NewAsync(owner string, slots int) *AsyncCtx {
	if slots <= 0 {
		slots = defaultAsyncSlots
	}
	a := &AsyncCtx{
		d:         d,
		owner:     owner,
		vec:       NewBitVector(slots),
		queue:     make(chan int, slots),
		gInFlight: d.reg.Gauge("cfrm.async.inflight." + owner),
		gTotal:    d.reg.Gauge("cfrm.async.inflight"),
		slots:     make([]asyncSlot, slots),
		free:      make([]int, 0, slots),
	}
	a.cond = sync.NewCond(&a.mu)
	for i := slots - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
	for i := 0; i < asyncWorkers; i++ {
		go a.worker()
	}
	return a
}

// Owner reports the connector this context dispatches for.
func (a *AsyncCtx) Owner() string { return a.owner }

// Vector exposes the completion vector for direct polling (the
// paper's local vector-test instruction); Completion.Bit gives a
// handle's bit index.
func (a *AsyncCtx) Vector() *BitVector { return a.vec }

// Slots reports the slot count (maximum in-flight commands).
func (a *AsyncCtx) Slots() int { return len(a.slots) }

// InFlight reports commands issued but not yet retrieved.
func (a *AsyncCtx) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.slots) - len(a.free)
}

// Run issues an envelope asynchronously against the named structure
// and returns its Completion handle. Validation is synchronous (a
// malformed envelope fails here, not in the handle); everything after
// — the pipeline gate included — runs on a dispatcher, and ctx is the
// context the command gates on when it reaches the front. Run blocks
// while every slot is in flight.
func (a *AsyncCtx) Run(ctx context.Context, structure string, cmds ...Cmd) (*Completion, error) {
	if len(cmds) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadArgument)
	}
	// The envelope's model is its first subcommand's; the pipeline
	// checks it against the structure when the command reaches it.
	if err := ValidateBatch(cmds[0].Kind.Model(), cmds); err != nil {
		return nil, err
	}
	a.mu.Lock()
	for len(a.free) == 0 && !a.closed {
		a.cond.Wait()
	}
	if a.closed {
		a.mu.Unlock()
		return nil, ErrAsyncClosed
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.seq++
	a.slots[idx] = asyncSlot{ctx: ctx, name: structure, cmd: Cmd{Kind: CmdBatch, Sub: cmds}, seq: a.seq}
	a.vec.Clear(idx)
	a.gInFlight.Add(1)
	a.gTotal.Add(1)
	c := &Completion{a: a, idx: idx, seq: a.seq}
	// Buffered to the slot count, so the send cannot block while mu is
	// held — and holding mu orders it against Close's channel close.
	a.queue <- idx
	a.mu.Unlock()
	return c, nil
}

// worker drains issued slots until Close. One envelope executes at a
// time per worker; in-flight concurrency is min(asyncWorkers, slots).
func (a *AsyncCtx) worker() {
	for idx := range a.queue {
		s := &a.slots[idx]
		// The slot is owned by this worker between dequeue and the bit
		// flip; ctx/name/cmd are immutable for that window.
		reply, err := a.d.Exec(s.ctx, s.name, s.cmd)
		a.mu.Lock()
		s.reply, s.err = reply, err
		a.gInFlight.Add(-1)
		a.gTotal.Add(-1)
		a.vec.Set(idx) // completion: the no-interrupt bit flip
		a.cond.Broadcast()
		a.mu.Unlock()
	}
}

// Close stops the dispatchers after the already-issued queue drains.
// In-flight completions still complete and remain retrievable; new Run
// calls fail with ErrAsyncClosed.
func (a *AsyncCtx) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	close(a.queue)
	a.cond.Broadcast()
}

// Completion is the handle of one asynchronously issued envelope. It
// is bound to a completion-vector bit: Done tests it, Wait parks until
// it flips. Retrieving the outcome (Wait, Err, or Reply) releases the
// slot for reuse; an unretrieved handle pins its slot.
type Completion struct {
	a   *AsyncCtx
	idx int
	seq uint64

	done  bool // outcome retrieved into err/reply, slot released
	err   error
	reply Reply
}

// Bit reports the handle's completion-vector bit index.
func (c *Completion) Bit() int { return c.idx }

// Done reports whether the command has completed (its vector bit is
// set). It does not retrieve the outcome.
func (c *Completion) Done() bool {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	return c.done || (c.a.slots[c.idx].seq == c.seq && c.a.vec.Test(c.idx))
}

// retrieveLocked copies the slot's outcome into the handle and frees
// the slot. Caller holds a.mu with the completion bit set.
func (c *Completion) retrieveLocked() {
	if c.done {
		return
	}
	s := &c.a.slots[c.idx]
	c.err, c.reply = s.err, s.reply
	c.done = true
	*s = asyncSlot{}
	c.a.vec.Clear(c.idx)
	c.a.free = append(c.a.free, c.idx)
	c.a.cond.Broadcast()
}

// Wait parks until the command completes, retrieves the outcome, and
// returns it flattened to one error (batch-level first, else the first
// failing subcommand; see FirstErr). Use Reply for per-subcommand
// results and outcomes.
func (c *Completion) Wait() error {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	for !c.done && !(c.a.slots[c.idx].seq == c.seq && c.a.vec.Test(c.idx)) {
		c.a.cond.Wait()
	}
	c.retrieveLocked()
	return FirstErr(c.reply, c.err)
}

// Err is the non-blocking Wait: ErrAsyncPending while in flight,
// otherwise it retrieves and reports the flattened outcome.
func (c *Completion) Err() error {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	if !c.done && !(c.a.slots[c.idx].seq == c.seq && c.a.vec.Test(c.idx)) {
		return ErrAsyncPending
	}
	c.retrieveLocked()
	return FirstErr(c.reply, c.err)
}

// Reply parks until completion and returns the envelope's reply
// alongside the batch-level error (Lock.Batch's contract).
func (c *Completion) Reply() (Reply, error) {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	for !c.done && !(c.a.slots[c.idx].seq == c.seq && c.a.vec.Test(c.idx)) {
		c.a.cond.Wait()
	}
	c.retrieveLocked()
	return c.reply, c.err
}

// RunAsync issues one envelope asynchronously through the front's
// shared dispatch context (created on first use, owner "front").
// Subsystems with their own connector identity should hold a
// per-connector AsyncCtx from NewAsync instead, so RMF's in-flight
// gauges attribute depth to the right system.
func (d *Duplexed) RunAsync(ctx context.Context, structure string, cmds ...Cmd) (*Completion, error) {
	return d.defaultAsync().Run(ctx, structure, cmds...)
}

// defaultAsync returns the front's shared AsyncCtx, creating it on
// first use. Losers of the creation race close their spare.
func (d *Duplexed) defaultAsync() *AsyncCtx {
	d.mu.Lock()
	a := d.async
	d.mu.Unlock()
	if a != nil {
		return a
	}
	fresh := d.NewAsync("front", defaultAsyncSlots)
	d.mu.Lock()
	if d.async == nil {
		d.async = fresh
	}
	a = d.async
	d.mu.Unlock()
	if a != fresh {
		fresh.Close()
	}
	return a
}
