package cf

import (
	"context"

	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sysplex/internal/metrics"
)

// cacheStripes is the number of directory shards; a power of two so the
// stripe index is a mask of the block-name hash.
const cacheStripes = 64

// CacheStructure is a CF cache-model structure (§3.3.2): a global
// buffer directory tracking multi-system interest in named data blocks,
// with an optional global data cache serving as a second-level cache
// between local processor memory and DASD.
//
// Connectors register local-buffer interest per block; a writer's
// WriteAndInvalidate atomically stores the new version, clears the
// validity bit of every *other* registered connector via its local bit
// vector (no target-side software), deregisters them, and returns only
// when all invalidation signals have completed — CPU-synchronously to
// the updating system.
//
// Concurrency: the directory is sharded by block-name hash into
// cacheStripes stripes, so commands against different blocks proceed in
// parallel. Whole-structure operations (ChangedBlocks, connector purge,
// clone, and the full-directory reclaim slow path) take every stripe in
// ascending order. The connector table has its own RWMutex; connectors
// are only *removed* while all stripes are held, so a stripe holder sees
// a stable connector set. Lock order: stripe(s) ascending, then connMu.
type CacheStructure struct {
	facility   *Facility
	name       string
	maxEntries int // immutable

	mConnect cmdMetrics
	mRead    cmdMetrics
	mWrite   cmdMetrics
	mUnreg   cmdMetrics
	mCoBegin cmdMetrics
	mCoEnd   cmdMetrics
	cHit     *metrics.Counter
	cMiss    *metrics.Counter
	cXI      *metrics.Counter
	cReclaim *metrics.Counter

	nEntries atomic.Int64 // directory entries across all stripes, <= maxEntries
	stripes  [cacheStripes]cacheStripe

	connMu sync.RWMutex // lintlock: level=40
	conns  map[string]*cacheConn
}

type cacheStripe struct {
	mu sync.Mutex // lintlock: level=30 ordered — lockAll takes stripes in index order
	m  map[string]*cacheEntry
}

type cacheConn struct {
	vector *BitVector
}

type cacheEntry struct {
	name       string
	registered map[string]int // connector -> local vector index
	data       []byte         // nil when directory-only
	changed    bool           // needs castout to DASD
	castoutBy  string         // connector holding the castout lock
	version    uint64
}

// cacheStripeIdx hashes a block name to its stripe (inline FNV-1a).
func cacheStripeIdx(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h & (cacheStripes - 1))
}

func (s *CacheStructure) stripeFor(name string) *cacheStripe {
	return &s.stripes[cacheStripeIdx(name)]
}

func (s *CacheStructure) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *CacheStructure) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

func (s *CacheStructure) unlockAllExcept(keep *cacheStripe) {
	for i := range s.stripes {
		if &s.stripes[i] != keep {
			s.stripes[i].mu.Unlock()
		}
	}
}

// AllocateCacheStructure allocates a cache structure with a directory
// capacity of maxEntries blocks.
func (f *Facility) AllocateCacheStructure(name string, maxEntries int) (Cache, error) {
	if maxEntries <= 0 {
		return nil, fmt.Errorf("%w: cache needs > 0 directory entries", ErrBadArgument)
	}
	s := newCacheStructure(f, name, maxEntries)
	if err := f.allocate(name, s); err != nil {
		return nil, err
	}
	return s, nil
}

func newCacheStructure(f *Facility, name string, maxEntries int) *CacheStructure {
	s := &CacheStructure{
		facility:   f,
		name:       name,
		maxEntries: maxEntries,
		conns:      make(map[string]*cacheConn),
	}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]*cacheEntry)
	}
	s.mConnect = f.cmdMetrics("cache.connect")
	s.mRead = f.cmdMetrics("cache.read")
	s.mWrite = f.cmdMetrics("cache.write")
	s.mUnreg = f.cmdMetrics("cache.unregister")
	s.mCoBegin = f.cmdMetrics("cache.castoutbegin")
	s.mCoEnd = f.cmdMetrics("cache.castoutend")
	s.cHit = f.reg.Counter("cf.cache.hit")
	s.cMiss = f.reg.Counter("cf.cache.miss")
	s.cXI = f.reg.Counter("cf.cache.xi")
	s.cReclaim = f.reg.Counter("cf.cache.reclaim")
	return s
}

// CacheStructure returns the named cache structure.
func (f *Facility) CacheStructure(name string) (Cache, error) {
	s, err := f.lookup(name, CacheModel)
	if err != nil {
		return nil, err
	}
	return s.(*CacheStructure), nil
}

func (s *CacheStructure) model() Model   { return CacheModel }
func (s *CacheStructure) fac() *Facility { return s.facility }

// cloneInto re-allocates the cache structure in dst with a deep copy of
// the directory. Connector bit vectors are shared with the source: both
// replicas of a duplexed pair flip validity bits in the same
// system-owned vectors.
func (s *CacheStructure) cloneInto(dst *Facility) (structure, error) {
	s.lockAll()
	defer s.unlockAll()
	s.connMu.RLock()
	defer s.connMu.RUnlock()
	n := newCacheStructure(dst, s.name, s.maxEntries)
	// As with list serialized locks: a broken facility's castout locks
	// are all stale (the claiming castout aborted with ErrCFDown), and a
	// stale castoutBy would block every future castout of the block.
	// Drop them when copying from a failed source; the changed state
	// itself is kept, so the pages are still cast out — by whoever
	// claims them next.
	broken := s.facility.Failed()
	for c, cc := range s.conns {
		n.conns[c] = &cacheConn{vector: cc.vector}
	}
	for i := range s.stripes {
		for name, e := range s.stripes[i].m {
			ne := &cacheEntry{
				name:       e.name,
				registered: make(map[string]int, len(e.registered)),
				changed:    e.changed,
				castoutBy:  e.castoutBy,
				version:    e.version,
			}
			if broken {
				ne.castoutBy = ""
			}
			for c, idx := range e.registered {
				ne.registered[c] = idx
			}
			if e.data != nil {
				ne.data = append([]byte(nil), e.data...)
			}
			n.stripes[i].m[name] = ne
			n.nEntries.Add(1)
		}
	}
	if err := dst.allocate(s.name, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Name returns the structure name.
func (s *CacheStructure) Name() string { return s.name }

// Connect attaches a connector with its local bit vector. MVS allocates
// the vector on behalf of the buffer manager at connect time (§3.3.2);
// here the caller passes it in and the CF keeps the reference it will
// flip bits through.
func (s *CacheStructure) Connect(ctx context.Context, conn string, vector *BitVector) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mConnect, start)
	if vector == nil {
		return fmt.Errorf("%w: nil vector", ErrBadArgument)
	}
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.conns[conn] = &cacheConn{vector: vector}
	return nil
}

func (s *CacheStructure) disconnect(conn string) {
	s.purgeConn(conn)
}

func (s *CacheStructure) failConnector(conn string) {
	s.purgeConn(conn)
}

// purgeConn removes a connector. It holds every stripe while doing so —
// this is what lets entry commands treat the connector set as stable
// under a single stripe lock.
func (s *CacheStructure) purgeConn(conn string) {
	s.lockAll()
	defer s.unlockAll()
	for i := range s.stripes {
		for _, e := range s.stripes[i].m {
			delete(e.registered, conn)
			if e.castoutBy == conn {
				e.castoutBy = "" // castout lock released; data still changed
			}
		}
	}
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// conn returns the live connector or an ErrNotConnected error. Safe to
// call while holding a stripe: connectors are only removed under all
// stripes.
func (s *CacheStructure) conn(conn string) (*cacheConn, error) {
	s.connMu.RLock()
	c := s.conns[conn]
	s.connMu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotConnected, conn)
	}
	return c, nil
}

// ReadResult is the outcome of ReadAndRegister.
type ReadResult struct {
	// Data is the current block image when globally cached (a "local
	// buffer refresh" hit), else nil and the caller reads DASD.
	Data []byte
	// Hit reports whether Data came from the global cache.
	Hit bool
	// Version is the directory version of the block at registration.
	Version uint64
}

// ReadAndRegister registers conn's interest in block name, associating
// local vector index vecIdx with it, sets the validity bit, and returns
// the globally cached data if present.
func (s *CacheStructure) ReadAndRegister(ctx context.Context, conn, name string, vecIdx int) (ReadResult, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ReadResult{}, err
	}
	defer s.facility.charge(s.mRead, start)
	c, err := s.conn(conn)
	if err != nil {
		return ReadResult{}, err
	}
	st, e, err := s.entryStripe(name)
	if err != nil {
		return ReadResult{}, err
	}
	defer st.mu.Unlock()
	e.registered[conn] = vecIdx
	c.vector.Set(vecIdx)
	res := ReadResult{Version: e.version}
	if e.data != nil {
		res.Data = append([]byte(nil), e.data...)
		res.Hit = true
		s.cHit.Inc()
	} else {
		s.cMiss.Inc()
	}
	return res, nil
}

// WriteAndInvalidate stores a new version of block name (cache=true
// keeps the data in the global cache; changed=true marks it pending
// castout), cross-invalidates every other registered connector, and
// re-registers the writer at vecIdx with its validity bit set.
func (s *CacheStructure) WriteAndInvalidate(ctx context.Context, conn, name string, data []byte, cache, changed bool, vecIdx int) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mWrite, start)
	c, err := s.conn(conn)
	if err != nil {
		return err
	}
	st, e, err := s.entryStripe(name)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	// Cross-invalidate signals go in parallel to only the systems with
	// registered interest; each flips the target's validity bit with no
	// target-side processing. Completion of all signals is observed
	// before this command returns.
	s.connMu.RLock()
	for other, idx := range e.registered {
		if other == conn {
			continue
		}
		if oc, ok := s.conns[other]; ok {
			oc.vector.Clear(idx)
			s.cXI.Inc()
		}
		delete(e.registered, other)
	}
	s.connMu.RUnlock()
	if cache {
		e.data = append([]byte(nil), data...)
	} else {
		e.data = nil
	}
	if changed {
		e.changed = true
	}
	e.version++
	e.registered[conn] = vecIdx
	c.vector.Set(vecIdx)
	return nil
}

// Unregister removes conn's interest in block name (local buffer
// reclaimed). The connector clears its own vector bit.
func (s *CacheStructure) Unregister(ctx context.Context, conn, name string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mUnreg, start)
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.m[name]
	if e == nil {
		return nil
	}
	if idx, ok := e.registered[conn]; ok {
		delete(e.registered, conn)
		s.connMu.RLock()
		if c := s.conns[conn]; c != nil {
			c.vector.Clear(idx)
		}
		s.connMu.RUnlock()
	}
	return nil
}

// CastoutBegin claims the castout lock for a changed block and returns
// its data. The caller writes it to DASD and then calls CastoutEnd.
func (s *CacheStructure) CastoutBegin(ctx context.Context, conn, name string) ([]byte, uint64, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer s.facility.charge(s.mCoBegin, start)
	if _, err := s.conn(conn); err != nil {
		return nil, 0, err
	}
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.m[name]
	if e == nil || !e.changed || e.data == nil {
		return nil, 0, fmt.Errorf("%w: %q not changed in cache", ErrEntryNotFound, name)
	}
	if e.castoutBy != "" && e.castoutBy != conn {
		return nil, 0, fmt.Errorf("%w: castout of %q by %s", ErrLockHeld, name, e.castoutBy)
	}
	e.castoutBy = conn
	return append([]byte(nil), e.data...), e.version, nil
}

// CastoutEnd completes a castout: if the block version is unchanged
// since CastoutBegin the changed state is cleared. The castout lock is
// released either way.
func (s *CacheStructure) CastoutEnd(ctx context.Context, conn, name string, version uint64) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mCoEnd, start)
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.m[name]
	if e == nil {
		return nil
	}
	if e.castoutBy == conn {
		e.castoutBy = ""
		if e.version == version {
			e.changed = false
		}
	}
	return nil
}

// ChangedBlocks lists blocks pending castout, sorted (the castout
// owner scans this). Takes every stripe for a consistent snapshot.
func (s *CacheStructure) ChangedBlocks() []string {
	s.lockAll()
	defer s.unlockAll()
	var out []string
	for i := range s.stripes {
		for n, e := range s.stripes[i].m {
			if e.changed {
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Registered reports the connectors registered for block name.
func (s *CacheStructure) Registered(name string) []string {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.m[name]
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.registered))
	for c := range e.registered {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Version returns the directory version of a block (0 if unknown).
func (s *CacheStructure) Version(name string) uint64 {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.m[name]; e != nil {
		return e.version
	}
	return 0
}

// entryStripe finds or creates the directory entry for name and returns
// it with its stripe locked; the caller unlocks the stripe. The fast
// path touches only the block's own stripe. When the directory is full
// it falls back to holding every stripe for a deterministic global
// reclaim (lexicographically smallest clean unregistered entry, so
// tests are stable), then releases all but the target stripe.
func (s *CacheStructure) entryStripe(name string) (*cacheStripe, *cacheEntry, error) {
	st := s.stripeFor(name)
	st.mu.Lock()
	if e := st.m[name]; e != nil {
		return st, e, nil
	}
	if s.nEntries.Add(1) <= int64(s.maxEntries) {
		e := &cacheEntry{name: name, registered: make(map[string]int)}
		st.m[name] = e
		return st, e, nil
	}
	s.nEntries.Add(-1)
	st.mu.Unlock()

	s.lockAll()
	if e := st.m[name]; e != nil { // created while we queued for the stripes
		s.unlockAllExcept(st)
		return st, e, nil
	}
	if s.nEntries.Load() >= int64(s.maxEntries) && !s.reclaimAllHeld() {
		s.unlockAll()
		return nil, nil, fmt.Errorf("%w: %d entries", ErrCacheFull, s.maxEntries)
	}
	s.nEntries.Add(1)
	e := &cacheEntry{name: name, registered: make(map[string]int)}
	st.m[name] = e
	s.unlockAllExcept(st)
	return st, e, nil
}

// reclaimAllHeld evicts one clean, unregistered entry (deterministically
// the lexicographically smallest across the whole directory). Caller
// holds every stripe.
func (s *CacheStructure) reclaimAllHeld() bool {
	var victim string
	var victimStripe *cacheStripe
	for i := range s.stripes {
		for n, e := range s.stripes[i].m {
			if e.changed || len(e.registered) > 0 || e.castoutBy != "" {
				continue
			}
			if victim == "" || n < victim {
				victim = n
				victimStripe = &s.stripes[i]
			}
		}
	}
	if victim == "" {
		return false
	}
	delete(victimStripe.m, victim)
	s.nEntries.Add(-1)
	s.cReclaim.Inc()
	return true
}

// storageBytes estimates the structure's footprint: directory entries
// plus the data-element budget.
func (s *CacheStructure) storageBytes() int64 {
	return int64(s.maxEntries) * 4352 // directory entry + one 4K data element
}
