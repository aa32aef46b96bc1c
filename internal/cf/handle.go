// Typed structure fronts: the exploiter-facing Lock, Cache and List
// command surfaces over anything that executes descriptors. Each method
// fills a Cmd and unpacks the Reply its table row promises — nothing
// else. One front per model serves both a duplexed pair (the Executor
// is the pair's pipeline) and a single remote replica (the Executor is
// the transport handle); an in-process structure is its own front.
package cf

import (
	"context"
	"hash/fnv"
)

// Executor is anything a command descriptor can be issued to: one
// replica of a structure, or a duplexed pair of them.
type Executor interface {
	// Exec runs one command, or one CmdBatch envelope, to completion.
	// Both travel by value; implementations must not retain c.
	Exec(ctx context.Context, c Cmd) (Reply, error)
}

// LockOn returns the Lock command surface of a lock-model replica.
func LockOn(r Replica) Lock {
	if l, ok := r.(Lock); ok {
		return l
	}
	return &lockHandle{replicaHandle(r)}
}

// CacheOn returns the Cache command surface of a cache-model replica.
func CacheOn(r Replica) Cache {
	if c, ok := r.(Cache); ok {
		return c
	}
	return &cacheHandle{replicaHandle(r)}
}

// ListOn returns the List command surface of a list-model replica.
func ListOn(r Replica) List {
	if l, ok := r.(List); ok {
		return l
	}
	return &listHandle{replicaHandle(r)}
}

func replicaHandle(r Replica) handle {
	return handle{x: r, name: r.ReplicaName(), size: r.ReplicaSize()}
}

// handle is the model-independent core of a typed front.
type handle struct {
	x    Executor
	name string
	size int // lock table entries / list headers; fixed at allocation
}

// Name returns the structure name.
func (h *handle) Name() string { return h.name }

// do issues a command whose reply carries no fields.
func (h *handle) do(ctx context.Context, c Cmd) error {
	_, err := h.x.Exec(ctx, c)
	return err
}

// detached issues a command for a context-free interface method: the
// diagnostics, which read in-memory state and issue no CF command, and
// the one bookkeeping command with no error path (Unmonitor), which
// must complete regardless of any caller's deadline.
// This is the one place a command enters Exec without a caller context.
func (h *handle) detached(c Cmd) (Reply, error) {
	return h.x.Exec(context.Background(), c)
}

// Batch executes an envelope of subcommands of the structure's model in
// one pipeline traversal (one link crossing on a transport handle).
func (h *handle) Batch(ctx context.Context, cmds []Cmd) (Reply, error) {
	return h.x.Exec(ctx, Cmd{Kind: CmdBatch, Sub: cmds})
}

// hashResource maps a software lock resource name to a lock table
// entry, the "software-hashing" of §3.3.1. The hash is part of the
// structure's architecture, not replica state, so every front computes
// it locally.
func hashResource(resource string, entries int) int {
	if entries <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(resource))
	return int(h.Sum64() % uint64(entries))
}

// lockHandle is the Lock front.
type lockHandle struct{ handle }

func (l *lockHandle) Entries() int                     { return l.size }
func (l *lockHandle) HashResource(resource string) int { return hashResource(resource, l.size) }

func (l *lockHandle) Connect(ctx context.Context, conn string) error {
	return l.do(ctx, Cmd{Kind: CmdLockConnect, Conn: conn})
}

func (l *lockHandle) Obtain(ctx context.Context, idx int, conn string, mode LockMode) (ObtainResult, error) {
	r, err := l.x.Exec(ctx, Cmd{Kind: CmdLockObtain, Idx: idx, Conn: conn, Mode: mode})
	return ObtainResult{Granted: r.Flag, Holders: r.Names}, err
}

func (l *lockHandle) ForceObtain(ctx context.Context, idx int, conn string, mode LockMode) error {
	return l.do(ctx, Cmd{Kind: CmdLockForce, Idx: idx, Conn: conn, Mode: mode})
}

func (l *lockHandle) Release(ctx context.Context, idx int, conn string, mode LockMode) error {
	return l.do(ctx, Cmd{Kind: CmdLockRelease, Idx: idx, Conn: conn, Mode: mode})
}

func (l *lockHandle) Interest(idx int, conn string) (share, excl int, err error) {
	r, err := l.detached(Cmd{Kind: CmdLockInterest, Idx: idx, Conn: conn})
	return r.N, r.M, err
}

func (l *lockHandle) SetRecord(ctx context.Context, conn, resource string, mode LockMode) error {
	return l.do(ctx, Cmd{Kind: CmdLockSetRecord, Conn: conn, Name: resource, Mode: mode})
}

func (l *lockHandle) DeleteRecord(ctx context.Context, conn, resource string) error {
	return l.do(ctx, Cmd{Kind: CmdLockDelRecord, Conn: conn, Name: resource})
}

func (l *lockHandle) Records(ctx context.Context, conn string) ([]LockRecord, error) {
	r, err := l.x.Exec(ctx, Cmd{Kind: CmdLockRecords, Conn: conn})
	return r.Records, err
}

func (l *lockHandle) RetainedConnectors() []string {
	r, _ := l.detached(Cmd{Kind: CmdLockRetainedConns})
	return r.Names
}

// cacheHandle is the Cache front.
type cacheHandle struct{ handle }

// Connect attaches a connector and its validity vector. Replicas of a
// pair share the vector: either one's cross-invalidation flips the same
// system-owned bits, once per target.
func (c *cacheHandle) Connect(ctx context.Context, conn string, vector *BitVector) error {
	return c.do(ctx, Cmd{Kind: CmdCacheConnect, Conn: conn, Vector: vector})
}

func (c *cacheHandle) ReadAndRegister(ctx context.Context, conn, name string, vecIdx int) (ReadResult, error) {
	r, err := c.x.Exec(ctx, Cmd{Kind: CmdCacheRead, Conn: conn, Name: name, VecIdx: vecIdx})
	return ReadResult{Data: r.Data, Hit: r.Flag, Version: r.Version}, err
}

func (c *cacheHandle) WriteAndInvalidate(ctx context.Context, conn, name string, data []byte, cache, changed bool, vecIdx int) error {
	return c.do(ctx, Cmd{Kind: CmdCacheWrite, Conn: conn, Name: name, Data: data, Cache: cache, Changed: changed, VecIdx: vecIdx})
}

func (c *cacheHandle) Unregister(ctx context.Context, conn, name string) error {
	return c.do(ctx, Cmd{Kind: CmdCacheUnregister, Conn: conn, Name: name})
}

func (c *cacheHandle) CastoutBegin(ctx context.Context, conn, name string) ([]byte, uint64, error) {
	r, err := c.x.Exec(ctx, Cmd{Kind: CmdCacheCastoutBegin, Conn: conn, Name: name})
	return r.Data, r.Version, err
}

func (c *cacheHandle) CastoutEnd(ctx context.Context, conn, name string, version uint64) error {
	return c.do(ctx, Cmd{Kind: CmdCacheCastoutEnd, Conn: conn, Name: name, Version: version})
}

func (c *cacheHandle) ChangedBlocks() []string {
	r, _ := c.detached(Cmd{Kind: CmdCacheChangedBlocks})
	return r.Names
}

func (c *cacheHandle) Registered(name string) []string {
	r, _ := c.detached(Cmd{Kind: CmdCacheRegistered, Name: name})
	return r.Names
}

func (c *cacheHandle) Version(name string) uint64 {
	r, _ := c.detached(Cmd{Kind: CmdCacheVersion, Name: name})
	return r.Version
}

// listHandle is the List front.
type listHandle struct{ handle }

func (l *listHandle) Lists() int { return l.size }

// Connect attaches a connector and its notification vector, shared by
// both replicas of a pair (signals are idempotent bit sets).
func (l *listHandle) Connect(ctx context.Context, conn string, vector *BitVector) error {
	return l.do(ctx, Cmd{Kind: CmdListConnect, Conn: conn, Vector: vector})
}

func (l *listHandle) SetLock(ctx context.Context, idx int, conn string) error {
	return l.do(ctx, Cmd{Kind: CmdListSetLock, Idx: idx, Conn: conn})
}

func (l *listHandle) ReleaseLock(ctx context.Context, idx int, conn string) error {
	return l.do(ctx, Cmd{Kind: CmdListReleaseLock, Idx: idx, Conn: conn})
}

func (l *listHandle) LockHolder(idx int) string {
	r, _ := l.detached(Cmd{Kind: CmdListLockHolder, Idx: idx})
	return r.Text
}

func (l *listHandle) Write(ctx context.Context, conn string, list int, id, key string, data []byte, order Order, cond Cond) error {
	return l.do(ctx, Cmd{Kind: CmdListWrite, Conn: conn, Idx: list, Name: id, Key: key, Data: data, Order: order, Cond: cond})
}

func (l *listHandle) Read(ctx context.Context, conn, id string, cond Cond) (ListEntry, error) {
	r, err := l.x.Exec(ctx, Cmd{Kind: CmdListRead, Conn: conn, Name: id, Cond: cond})
	return r.Entry, err
}

func (l *listHandle) ReadFirst(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	r, err := l.x.Exec(ctx, Cmd{Kind: CmdListReadFirst, Conn: conn, Idx: list, Cond: cond})
	return r.Entry, err
}

func (l *listHandle) Pop(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	r, err := l.x.Exec(ctx, Cmd{Kind: CmdListPop, Conn: conn, Idx: list, Cond: cond})
	return r.Entry, err
}

func (l *listHandle) Delete(ctx context.Context, conn, id string, cond Cond) error {
	return l.do(ctx, Cmd{Kind: CmdListDelete, Conn: conn, Name: id, Cond: cond})
}

func (l *listHandle) Move(ctx context.Context, conn, id string, toList int, order Order, cond Cond) error {
	return l.do(ctx, Cmd{Kind: CmdListMove, Conn: conn, Name: id, Idx: toList, Order: order, Cond: cond})
}

func (l *listHandle) SetAdjunct(ctx context.Context, conn, id, adjunct string, cond Cond) error {
	return l.do(ctx, Cmd{Kind: CmdListSetAdjunct, Conn: conn, Name: id, Key: adjunct, Cond: cond})
}

func (l *listHandle) Len(list int) int {
	r, _ := l.detached(Cmd{Kind: CmdListLen, Idx: list})
	return r.N
}

func (l *listHandle) Entries(list int) []ListEntry {
	r, _ := l.detached(Cmd{Kind: CmdListEntries, Idx: list})
	return r.Entries
}

func (l *listHandle) TotalEntries() int {
	r, _ := l.detached(Cmd{Kind: CmdListTotalEntries})
	return r.N
}

func (l *listHandle) Monitor(ctx context.Context, conn string, list int, vecIdx int) error {
	return l.do(ctx, Cmd{Kind: CmdListMonitor, Conn: conn, Idx: list, VecIdx: vecIdx})
}

func (l *listHandle) Unmonitor(conn string, list int) {
	_, _ = l.detached(Cmd{Kind: CmdListUnmonitor, Conn: conn, Idx: list})
}

// Interface conformance.
var (
	_ Front = (*Facility)(nil)
	_ Front = (*Duplexed)(nil)
	_ Lock  = (*LockStructure)(nil)
	_ Lock  = (*lockHandle)(nil)
	_ Cache = (*CacheStructure)(nil)
	_ Cache = (*cacheHandle)(nil)
	_ List  = (*ListStructure)(nil)
	_ List  = (*listHandle)(nil)
)
