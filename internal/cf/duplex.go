package cf

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// DuplexEventKind classifies duplexing state transitions reported by a
// Duplexed front to its owner (normally the CFRM manager).
type DuplexEventKind int

// Duplexing transitions.
const (
	// EventFailover: the primary failed and the secondary was promoted
	// in-line; the pair is now simplex on the survivor.
	EventFailover DuplexEventKind = iota
	// EventDuplexBroken: the secondary was lost (facility failure or
	// replica divergence); the pair is now simplex on the primary.
	EventDuplexBroken
	// EventDuplexEstablished: a new secondary holds a synchronized copy
	// of every structure; commands are mirrored again.
	EventDuplexEstablished
)

// String names the event kind.
func (k DuplexEventKind) String() string {
	switch k {
	case EventFailover:
		return "failover"
	case EventDuplexBroken:
		return "duplex-broken"
	case EventDuplexEstablished:
		return "duplex-established"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// DuplexEvent is one duplexing state transition. Facility is the
// facility lost (failover, broken) or gained (established).
type DuplexEvent struct {
	Kind     DuplexEventKind
	Facility string
}

// Duplexed is a Facility-shaped command front over a primary/secondary
// node pair, modeling system-managed structure duplexing. Each replica
// is a Node — an in-process *Facility or a transport client serving a
// facility in another process — and the front is indifferent to the
// mix:
//
//   - Every mutating command is applied to the primary and mirrored to
//     the secondary; replica convergence requires only that commands
//     against the same key (lock entry, block, list) apply in the same
//     order on both replicas, so mutating commands are ordered by a
//     per-structure stripe keyed like the underlying structure rather
//     than a per-structure mutex. Read commands go to the primary only
//     and run concurrently with everything.
//   - The primary's results are the command's results; a secondary
//     outcome mismatch (divergence) or secondary failure breaks
//     duplexing and the pair degrades to simplex on the primary.
//   - A primary failure observed by any command triggers in-line
//     failover: the secondary is promoted and the command retries
//     transparently, so exploiters never see ErrCFDown while a
//     synchronized secondary exists.
//
// A Duplexed with no secondary behaves exactly like its primary
// facility. Re-establishing duplexing into a fresh facility (Reduplex)
// and retiring a healthy primary (SwitchPrimary, for planned rebuild)
// are driven by the CFRM manager.
type Duplexed struct {
	clock vclock.Clock
	reg   *metrics.Registry

	hFanout  *metrics.Histogram // cfrm.duplex.fanout, resolved once
	cRetried *metrics.Counter   // cfrm.cmd.retried, resolved once

	// Batch occupancy instrumentation; see countEnvelope.
	cBatchOps *metrics.Counter
	cBatchOcc [len(batchOccNames)]*metrics.Counter
	// batchConn caches the per-connector attribution counter pair
	// (conn -> *[2]*metrics.Counter); see connBatchCounters.
	batchConn sync.Map

	// opCounters holds the per-kind cfrm.op.* counter handles, all
	// resolved at construction and indexed by Kind, so the metrics
	// stage never hashes a string or takes the registry mutex.
	// Diagnostics are not commands and have none.
	opCounters [kindCount]*metrics.Counter
	// inject is the optional fault hook run by the inject stage.
	inject atomic.Pointer[func(ctx context.Context, op *Op) error]

	gen atomic.Uint64 // bumped (under mu) on every primary/secondary change

	mu        sync.Mutex // lintlock: level=50
	cond      *sync.Cond // broadcast when syncing clears
	primary   Node
	secondary Node // nil when simplex
	syncing   bool // Reduplex copy in progress
	pairs     map[string]*pair
	onEvent   func(DuplexEvent)
	async     *AsyncCtx // RunAsync's shared dispatch context, lazily built
}

// pairStripes is the number of command-ordering stripes per pair.
const pairStripes = 64

// pair tracks one structure's replica handles, orders its commands,
// and executes them: its Exec (op.go) is the command pipeline.
// Commands hold rw.RLock (plus, when mutating, the stripe for their
// key); structure-global operations and Reduplex hold rw.Lock. Handles
// are published in an atomic pointer and refreshed lazily when their
// generation falls behind the front's. Pairs are never removed from
// the front, so a typed handle keeps its pair for life.
type pair struct {
	d     *Duplexed
	name  string
	model Model
	size  int // fixed geometry, see Replica.ReplicaSize

	rw      sync.RWMutex            // lintlock: level=10
	stripes [pairStripes]sync.Mutex // lintlock: level=20 ordered — eachPair walks stripes in index order
	h       atomic.Pointer[pairHandles]
}

// pairHandles is one immutable snapshot of a pair's replica handles,
// each alongside the node that owns it (failover and duplex-break are
// node-level transitions, so a failing command must know which node
// its handle came from).
type pairHandles struct {
	gen     uint64
	priNode Node
	pri     Replica
	secNode Node    // nil when not mirrored
	sec     Replica // nil when not mirrored
}

// pairStripeIdx hashes a command-ordering key (FNV-1a) to a stripe.
func pairStripeIdx(key string) uint {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return uint(h & (pairStripes - 1))
}

// NewDuplexed returns a front over primary (required) and secondary
// (nil for simplex; pass an untyped nil, not a nil *Facility in a Node
// variable). Metrics are recorded into reg (a private registry is
// created when nil).
func NewDuplexed(clock vclock.Clock, reg *metrics.Registry, primary, secondary Node) *Duplexed {
	if clock == nil {
		clock = vclock.Real()
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Duplexed{
		clock:     clock,
		reg:       reg,
		hFanout:   reg.Histogram("cfrm.duplex.fanout"),
		cRetried:  reg.Counter("cfrm.cmd.retried"),
		primary:   primary,
		secondary: secondary,
		pairs:     make(map[string]*pair),
	}
	d.cond = sync.NewCond(&d.mu)
	for k := range cmdTable {
		if sp := &cmdTable[k]; sp.name != "" && !sp.diag {
			d.opCounters[k] = reg.Counter("cfrm.op." + sp.name)
		}
	}
	d.cBatchOps = reg.Counter("cfrm.batch.ops")
	for i := range d.cBatchOcc {
		d.cBatchOcc[i] = reg.Counter("cfrm.batch.occ." + batchOccNames[i])
	}
	return d
}

// OnEvent installs the duplexing transition callback. It may be invoked
// from inside a command (in-line failover) — handlers must not issue
// commands against this front synchronously.
func (d *Duplexed) OnEvent(fn func(DuplexEvent)) {
	d.mu.Lock()
	d.onEvent = fn
	d.mu.Unlock()
}

// Name identifies the pair, e.g. "CF01+CF02" when duplexed, "CF01" when
// simplex.
func (d *Duplexed) Name() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.secondary != nil {
		return d.primary.Name() + "+" + d.secondary.Name()
	}
	return d.primary.Name()
}

// Metrics exposes the front's duplexing instrumentation (cfrm.*
// counters; per-facility cf.* counters live on the facilities).
func (d *Duplexed) Metrics() *metrics.Registry { return d.reg }

// Primary returns the current primary node.
func (d *Duplexed) Primary() Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.primary
}

// Secondary returns the current secondary node (nil when simplex).
func (d *Duplexed) Secondary() Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.secondary
}

// State reports "duplexed", "syncing", or "simplex".
func (d *Duplexed) State() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.syncing:
		return "syncing"
	case d.secondary != nil:
		return "duplexed"
	default:
		return "simplex"
	}
}

// StructureNames lists structures allocated through the front, sorted.
func (d *Duplexed) StructureNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.pairs))
	for n := range d.pairs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetSyncLatency injects per-command service time on both current
// nodes (the duplex fan-out then costs two charged commands per
// mutating request, as real duplexing does).
func (d *Duplexed) SetSyncLatency(lat time.Duration) {
	d.mu.Lock()
	pri, sec := d.primary, d.secondary
	d.mu.Unlock()
	pri.SetSyncLatency(lat)
	if sec != nil {
		sec.SetSyncLatency(lat)
	}
}

// FailConnector marks conn abnormally terminated in every structure of
// both replicas, serialized with in-flight commands per structure so the
// replicas purge at the same point in the command sequence.
func (d *Duplexed) FailConnector(conn string) {
	d.eachPair(func(pri, sec Replica) {
		pri.ReplicaFailConnector(conn)
		if sec != nil {
			sec.ReplicaFailConnector(conn)
		}
	})
}

// DisconnectAll detaches conn cleanly from every structure of both
// replicas.
func (d *Duplexed) DisconnectAll(conn string) {
	d.eachPair(func(pri, sec Replica) {
		pri.ReplicaDisconnect(conn)
		if sec != nil {
			sec.ReplicaDisconnect(conn)
		}
	})
}

func (d *Duplexed) eachPair(fn func(pri, sec Replica)) {
	d.mu.Lock()
	ps := make([]*pair, 0, len(d.pairs))
	for _, p := range d.pairs {
		ps = append(ps, p)
	}
	d.mu.Unlock()
	for _, p := range ps {
		p.rw.Lock()
		if h, err := p.handles(); err == nil {
			fn(h.pri, h.sec)
		}
		p.rw.Unlock()
	}
}

// AllocateLockStructure allocates a lock structure on the primary and,
// when duplexed, the secondary.
func (d *Duplexed) AllocateLockStructure(name string, entries int) (Lock, error) {
	p, err := d.allocate(name, LockModel, entries, func(n Node) error {
		_, err := n.AllocateLockStructure(name, entries)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &lockHandle{p.handle()}, nil
}

// AllocateCacheStructure allocates a cache structure on both replicas.
func (d *Duplexed) AllocateCacheStructure(name string, maxEntries int) (Cache, error) {
	p, err := d.allocate(name, CacheModel, maxEntries, func(n Node) error {
		_, err := n.AllocateCacheStructure(name, maxEntries)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &cacheHandle{p.handle()}, nil
}

// AllocateListStructure allocates a list structure on both replicas.
func (d *Duplexed) AllocateListStructure(name string, nLists, nLocks, maxEntries int) (List, error) {
	p, err := d.allocate(name, ListModel, nLists, func(n Node) error {
		_, err := n.AllocateListStructure(name, nLists, nLocks, maxEntries)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &listHandle{p.handle()}, nil
}

// allocate performs a paired structure allocation. d.mu is held across
// both node allocations (node calls never re-enter the front), so an
// allocation can never race a Reduplex and miss the new secondary.
// size is the structure's fixed geometry (see Replica.ReplicaSize).
func (d *Duplexed) allocate(name string, model Model, size int, alloc func(Node) error) (*pair, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.syncing {
		d.cond.Wait()
	}
	if _, ok := d.pairs[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := alloc(d.primary); err != nil {
		return nil, err
	}
	if d.secondary != nil {
		if err := alloc(d.secondary); err != nil {
			// Best-effort rollback: the allocate error is what matters.
			_ = d.primary.Deallocate(name)
			return nil, err
		}
	}
	// The replica handles are looked up on first use.
	p := &pair{d: d, name: name, model: model, size: size}
	d.pairs[name] = p
	return p, nil
}

// LockStructure returns the named lock structure's duplexed front.
func (d *Duplexed) LockStructure(name string) (Lock, error) {
	p, err := d.lookup(name, LockModel)
	if err != nil {
		return nil, err
	}
	return &lockHandle{p.handle()}, nil
}

// CacheStructure returns the named cache structure's duplexed front.
func (d *Duplexed) CacheStructure(name string) (Cache, error) {
	p, err := d.lookup(name, CacheModel)
	if err != nil {
		return nil, err
	}
	return &cacheHandle{p.handle()}, nil
}

// ListStructure returns the named list structure's duplexed front.
func (d *Duplexed) ListStructure(name string) (List, error) {
	p, err := d.lookup(name, ListModel)
	if err != nil {
		return nil, err
	}
	return &listHandle{p.handle()}, nil
}

// lookup finds a structure allocated through the front, checking its
// model.
func (d *Duplexed) lookup(name string, m Model) (*pair, error) {
	p := d.pair(name)
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoStructure, name)
	}
	if p.model != m {
		return nil, fmt.Errorf("%w: %q is %s, not %s", ErrWrongModel, name, p.model, m)
	}
	return p, nil
}

// handle is the state of a typed front over this pair.
func (p *pair) handle() handle { return handle{x: p, name: p.name, size: p.size} }

func (d *Duplexed) pair(name string) *pair {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pairs[name]
}

// handles returns the current replica-handle snapshot, refreshing it
// after a node-level transition. The fast path is one atomic pointer
// load plus one generation load; refresh publishes a new immutable
// snapshot under d.mu. Callers hold p.rw (read or write). Lock order:
// p.rw (and optionally a stripe) then d.mu then any node-internal
// lookup mutex inside Structure.
func (p *pair) handles() (*pairHandles, error) {
	d := p.d
	h := p.h.Load()
	if h == nil || h.gen != d.gen.Load() {
		d.mu.Lock()
		nh := &pairHandles{gen: d.gen.Load(), priNode: d.primary, pri: d.primary.Structure(p.name)}
		if d.secondary != nil {
			nh.secNode = d.secondary
			nh.sec = d.secondary.Structure(p.name)
		}
		p.h.Store(nh)
		d.mu.Unlock()
		h = nh
	}
	if h.pri == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoStructure, p.name)
	}
	return h, nil
}

// failover promotes the secondary after the primary (seen) failed.
// Returns true when the caller should retry: either this call promoted
// the secondary, or another command already failed the pair over.
func (d *Duplexed) failover(seen Node) bool {
	d.mu.Lock()
	if d.primary != seen {
		// A concurrent command already completed the failover.
		d.mu.Unlock()
		return true
	}
	if d.secondary == nil || d.syncing {
		// No synchronized secondary to promote: the outage surfaces.
		d.mu.Unlock()
		return false
	}
	lost := d.primary.Name()
	d.primary, d.secondary = d.secondary, nil
	d.gen.Add(1)
	cb := d.onEvent
	d.mu.Unlock()
	d.reg.Counter("cfrm.failover.count").Inc()
	if cb != nil {
		cb(DuplexEvent{Kind: EventFailover, Facility: lost})
	}
	return true
}

// breakDuplex drops the secondary (sec) after it failed or diverged;
// the pair continues simplex on the primary.
func (d *Duplexed) breakDuplex(sec Node) {
	d.mu.Lock()
	if d.secondary != sec {
		d.mu.Unlock()
		return
	}
	lost := sec.Name()
	d.secondary = nil
	d.gen.Add(1)
	cb := d.onEvent
	d.mu.Unlock()
	d.reg.Counter("cfrm.duplex.broken").Inc()
	if cb != nil {
		cb(DuplexEvent{Kind: EventDuplexBroken, Facility: lost})
	}
}

// TryFailover fails over if the current primary is down and a
// synchronized secondary exists (the proactive path driven by CF health
// monitoring, as opposed to in-line discovery by a command).
func (d *Duplexed) TryFailover() bool {
	d.mu.Lock()
	pri := d.primary
	d.mu.Unlock()
	if !pri.Failed() {
		return false
	}
	return d.failover(pri)
}

// DropSecondary breaks duplexing if sec is the current secondary (the
// proactive path for a monitored secondary failure).
func (d *Duplexed) DropSecondary(sec Node) {
	d.breakDuplex(sec)
}

// Reduplex establishes newNode as the secondary by copying every
// structure into it. Per structure, the copy and the start of mirroring
// happen under the structure's command mutex, so no mutation can slip
// between them. The switchover is all-or-nothing: on any error the
// primary stays current, newNode is discarded, and no structure is left
// half-mirrored.
//
// The copy requires the primary's handles to support ReplicaCloneInto
// to newNode (in-process to in-process today); across a transport it
// fails with ErrCloneUnsupported — remote pairs are duplexed at
// allocation time instead and stay simplex after a failover until a
// fresh replica node is allocated through the front.
func (d *Duplexed) Reduplex(newNode Node) error {
	d.mu.Lock()
	if d.syncing {
		d.mu.Unlock()
		return errors.New("cf: duplexing establishment already in progress")
	}
	if d.secondary != nil {
		d.mu.Unlock()
		return errors.New("cf: already duplexed")
	}
	if newNode == nil || newNode == d.primary {
		d.mu.Unlock()
		return fmt.Errorf("%w: bad re-duplex target", ErrBadArgument)
	}
	d.syncing = true
	ps := make([]*pair, 0, len(d.pairs))
	for _, p := range d.pairs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	d.mu.Unlock()

	for _, p := range ps {
		p.rw.Lock()
		h, err := p.handles()
		if err == nil {
			var clone Replica
			clone, err = h.pri.ReplicaCloneInto(newNode)
			if err == nil {
				// Mirroring of this structure starts now; commands on
				// other structures still run simplex until their copy.
				// The snapshot carries the current generation, so it is
				// used as-is until the front-level transition below bumps
				// gen (the refresh then re-derives identical handles).
				p.h.Store(&pairHandles{gen: d.gen.Load(),
					priNode: h.priNode, pri: h.pri, secNode: newNode, sec: clone})
			}
		}
		p.rw.Unlock()
		if err != nil {
			d.abortSync(newNode)
			return fmt.Errorf("cf: re-duplex into %s: %w", newNode.Name(), err)
		}
	}

	d.mu.Lock()
	d.secondary = newNode
	d.syncing = false
	d.gen.Add(1)
	cb := d.onEvent
	d.cond.Broadcast()
	d.mu.Unlock()
	if cb != nil {
		cb(DuplexEvent{Kind: EventDuplexEstablished, Facility: newNode.Name()})
	}
	return nil
}

// abortSync undoes a failed Reduplex: clears any pair already mirroring
// into the abandoned target and releases waiters.
func (d *Duplexed) abortSync(newNode Node) {
	d.mu.Lock()
	ps := make([]*pair, 0, len(d.pairs))
	for _, p := range d.pairs {
		ps = append(ps, p)
	}
	d.syncing = false
	d.cond.Broadcast()
	d.mu.Unlock()
	for _, p := range ps {
		p.rw.Lock()
		if h := p.h.Load(); h != nil && h.sec != nil && h.secNode == newNode {
			p.h.Store(&pairHandles{gen: h.gen, priNode: h.priNode, pri: h.pri})
		}
		p.rw.Unlock()
	}
}

// SwitchPrimary promotes the secondary to primary and returns the
// retired (still healthy) old primary — the planned-rebuild move. It
// fails when the pair is not duplexed.
func (d *Duplexed) SwitchPrimary() (Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.syncing {
		return nil, errors.New("cf: duplexing establishment in progress")
	}
	if d.secondary == nil {
		return nil, errors.New("cf: not duplexed")
	}
	old := d.primary
	d.primary, d.secondary = d.secondary, nil
	d.gen.Add(1)
	return old, nil
}
