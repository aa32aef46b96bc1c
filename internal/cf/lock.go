package cf

import (
	"context"

	"fmt"
	"sort"
	"sync"
)

// LockMode is the interest level recorded in a lock table entry.
type LockMode int

// Lock modes.
const (
	Share LockMode = iota + 1
	Exclusive
)

// String names the mode.
func (m LockMode) String() string {
	switch m {
	case Share:
		return "share"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ObtainResult is the outcome of a lock-table obtain command.
type ObtainResult struct {
	// Granted reports CPU-synchronous grant (the common, contention-free
	// case, completing in microseconds per §3.3.1).
	Granted bool
	// Holders identifies the connectors holding incompatible interest
	// when Granted is false, enabling *selective* cross-system lock
	// negotiation rather than broadcast.
	Holders []string
}

// LockRecord is persistent lock information recorded in the structure
// so that peer systems can recover ("retain") locks held by a failed
// system (§3.3.1).
type LockRecord struct {
	Connector string
	Resource  string
	Mode      LockMode
}

// LockStructure is a CF lock-model structure: a program-specified
// number of lock table entries, each tracking per-connector share and
// exclusive interest, plus a record-data area for persistent locks.
//
// Concurrency: hash classes are independent by design (§3.3.1), so the
// lock table is striped per entry. Entry commands take mu.RLock plus
// the entry's own mutex; structure-wide operations (connect,
// disconnect, connector failure, clone) take mu.Lock, which excludes
// every entry mutator, and may then touch any entry or the record maps
// directly. Record commands take mu.RLock plus recMu.
type LockStructure struct {
	facility *Facility
	name     string

	mConnect cmdMetrics
	mObtain  cmdMetrics
	mForce   cmdMetrics
	mRel     cmdMetrics
	mSetRec  cmdMetrics
	mDelRec  cmdMetrics
	mRecords cmdMetrics

	mu      sync.RWMutex // lintlock: level=10
	entries []lockEntry  // slice header immutable; elements striped
	conns   map[string]bool

	// recMu guards records and retained under mu.RLock. (mu.Lock holders
	// access them directly.)
	recMu sync.Mutex // lintlock: level=50
	// records holds persistent lock records keyed by connector.
	records map[string]map[string]LockRecord // conn -> resource -> record
	// retained marks connectors that failed; their records survive for
	// peer recovery until explicitly deleted.
	retained map[string]bool
}

type lockEntry struct {
	mu         sync.Mutex     // lintlock: level=30 — taken under LockStructure.mu.RLock
	exclOwner  string         // connector with exclusive interest ("" none)
	exclCount  int            // resources it holds exclusively on this entry
	shared     map[string]int // connector -> count of share interests
	forcedExcl map[string]int // software-managed exclusive interest per connector
}

// exclInterestLocked reports whether any connector other than conn has
// exclusive interest (fast-path owner or software-managed).
func (e *lockEntry) otherExclLocked(conn string) []string {
	var holders []string
	if e.exclOwner != "" && e.exclOwner != conn {
		holders = append(holders, e.exclOwner)
	}
	for c, n := range e.forcedExcl {
		if c != conn && n > 0 {
			holders = append(holders, c)
		}
	}
	return holders
}

// AllocateLockStructure allocates a lock structure with n lock table
// entries.
func (f *Facility) AllocateLockStructure(name string, n int) (Lock, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: lock table needs > 0 entries", ErrBadArgument)
	}
	s := &LockStructure{
		facility: f,
		name:     name,
		entries:  make([]lockEntry, n),
		conns:    make(map[string]bool),
		records:  make(map[string]map[string]LockRecord),
		retained: make(map[string]bool),
	}
	s.resolveMetrics(f)
	if err := f.allocate(name, s); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *LockStructure) resolveMetrics(f *Facility) {
	s.mConnect = f.cmdMetrics("lock.connect")
	s.mObtain = f.cmdMetrics("lock.obtain")
	s.mForce = f.cmdMetrics("lock.force")
	s.mRel = f.cmdMetrics("lock.release")
	s.mSetRec = f.cmdMetrics("lock.setrecord")
	s.mDelRec = f.cmdMetrics("lock.delrecord")
	s.mRecords = f.cmdMetrics("lock.records")
}

// LockStructure returns the named lock structure.
func (f *Facility) LockStructure(name string) (Lock, error) {
	s, err := f.lookup(name, LockModel)
	if err != nil {
		return nil, err
	}
	return s.(*LockStructure), nil
}

func (s *LockStructure) model() Model   { return LockModel }
func (s *LockStructure) fac() *Facility { return s.facility }

// cloneInto re-allocates the lock structure in dst with a deep copy of
// its entries, connectors, records, and retained state.
func (s *LockStructure) cloneInto(dst *Facility) (structure, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &LockStructure{
		facility: dst,
		name:     s.name,
		entries:  make([]lockEntry, len(s.entries)),
		conns:    make(map[string]bool, len(s.conns)),
		records:  make(map[string]map[string]LockRecord, len(s.records)),
		retained: make(map[string]bool, len(s.retained)),
	}
	n.resolveMetrics(dst)
	for i := range s.entries {
		e := &s.entries[i]
		ne := &n.entries[i]
		ne.exclOwner = e.exclOwner
		ne.exclCount = e.exclCount
		if len(e.shared) > 0 {
			ne.shared = make(map[string]int, len(e.shared))
			for c, v := range e.shared {
				ne.shared[c] = v
			}
		}
		if len(e.forcedExcl) > 0 {
			ne.forcedExcl = make(map[string]int, len(e.forcedExcl))
			for c, v := range e.forcedExcl {
				ne.forcedExcl[c] = v
			}
		}
	}
	for c := range s.conns {
		n.conns[c] = true
	}
	for c, m := range s.records {
		nm := make(map[string]LockRecord, len(m))
		for r, rec := range m {
			nm[r] = rec
		}
		n.records[c] = nm
	}
	for c := range s.retained {
		n.retained[c] = true
	}
	if err := dst.allocate(s.name, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Name returns the structure name.
func (s *LockStructure) Name() string { return s.name }

// Entries returns the lock table size (fixed at allocation).
func (s *LockStructure) Entries() int { return len(s.entries) }

// Connect attaches a connector (a system's lock manager instance).
func (s *LockStructure) Connect(ctx context.Context, conn string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mConnect, start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[conn] = true
	delete(s.retained, conn) // reconnect after recovery
	return nil
}

func (s *LockStructure) disconnect(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	s.cleanupInterestLocked(conn)
	delete(s.records, conn) // normal shutdown: nothing to retain
}

func (s *LockStructure) failConnector(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.conns[conn] {
		return
	}
	delete(s.conns, conn)
	s.cleanupInterestLocked(conn)
	if len(s.records[conn]) > 0 {
		s.retained[conn] = true // persistent records retained for recovery
	}
}

// cleanupInterestLocked runs under mu.Lock, which excludes every entry
// mutator, so entries are touched without their stripe mutexes.
func (s *LockStructure) cleanupInterestLocked(conn string) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.exclOwner == conn {
			e.exclOwner = ""
			e.exclCount = 0
		}
		delete(e.shared, conn)
		delete(e.forcedExcl, conn)
	}
}

// HashResource maps a software lock resource name to a lock table
// entry, the "software-hashing" of §3.3.1.
func (s *LockStructure) HashResource(resource string) int {
	return hashResource(resource, len(s.entries))
}

// Obtain records interest of the given mode on lock table entry idx for
// conn. In the compatible case the request is granted synchronously;
// otherwise the connectors holding incompatible interest are returned
// for selective negotiation.
func (s *LockStructure) Obtain(ctx context.Context, idx int, conn string, mode LockMode) (ObtainResult, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ObtainResult{}, err
	}
	defer s.facility.charge(s.mObtain, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRLocked(idx, conn); err != nil {
		return ObtainResult{}, err
	}
	e := &s.entries[idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	switch mode {
	case Share:
		holders := e.otherExclLocked(conn)
		if len(holders) == 0 {
			if e.shared == nil {
				e.shared = make(map[string]int)
			}
			e.shared[conn]++
			return ObtainResult{Granted: true}, nil
		}
		sort.Strings(holders)
		return ObtainResult{Holders: dedup(holders)}, nil
	case Exclusive:
		holders := e.otherExclLocked(conn)
		for c, n := range e.shared {
			if c != conn && n > 0 {
				holders = append(holders, c)
			}
		}
		if len(holders) == 0 {
			if e.exclOwner == "" {
				e.exclOwner = conn
			}
			if e.exclOwner == conn {
				e.exclCount++
			} else {
				if e.forcedExcl == nil {
					e.forcedExcl = make(map[string]int)
				}
				e.forcedExcl[conn]++
			}
			return ObtainResult{Granted: true}, nil
		}
		sort.Strings(holders)
		return ObtainResult{Holders: dedup(holders)}, nil
	default:
		return ObtainResult{}, fmt.Errorf("%w: mode %v", ErrBadArgument, mode)
	}
}

// ForceObtain records interest regardless of entry compatibility. It is
// issued after software negotiation determines the conflict was false
// (different resources hashing to the same entry) or after the holder
// granted compatibility at the resource level; from then on the entry
// is software-managed, exactly the exception path §3.3.1 describes.
func (s *LockStructure) ForceObtain(ctx context.Context, idx int, conn string, mode LockMode) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mForce, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRLocked(idx, conn); err != nil {
		return err
	}
	e := &s.entries[idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	switch mode {
	case Share:
		if e.shared == nil {
			e.shared = make(map[string]int)
		}
		e.shared[conn]++
	case Exclusive:
		// Record the connector's exclusive interest on the (now
		// software-managed) entry without disturbing the fast-path
		// owner slot.
		if e.exclOwner == conn {
			e.exclCount++
			break
		}
		if e.forcedExcl == nil {
			e.forcedExcl = make(map[string]int)
		}
		e.forcedExcl[conn]++
	default:
		return fmt.Errorf("%w: mode %v", ErrBadArgument, mode)
	}
	return nil
}

// Release drops one unit of interest of the given mode for conn.
func (s *LockStructure) Release(ctx context.Context, idx int, conn string, mode LockMode) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mRel, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRLocked(idx, conn); err != nil {
		return err
	}
	e := &s.entries[idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	switch mode {
	case Share:
		if e.shared[conn] > 0 {
			e.shared[conn]--
			if e.shared[conn] == 0 {
				delete(e.shared, conn)
			}
		}
	case Exclusive:
		if e.exclOwner == conn && e.exclCount > 0 {
			e.exclCount--
			if e.exclCount == 0 {
				e.exclOwner = ""
			}
		} else if e.forcedExcl[conn] > 0 {
			e.forcedExcl[conn]--
			if e.forcedExcl[conn] == 0 {
				delete(e.forcedExcl, conn)
			}
		}
	default:
		return fmt.Errorf("%w: mode %v", ErrBadArgument, mode)
	}
	return nil
}

// Interest reports conn's recorded interest counts on entry idx
// (share, exclusive), for diagnostics and tests.
func (s *LockStructure) Interest(idx int, conn string) (share, excl int, err error) {
	if idx < 0 || idx >= len(s.entries) {
		return 0, 0, fmt.Errorf("%w: entry %d", ErrBadArgument, idx)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := &s.entries[idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	share = e.shared[conn]
	if e.exclOwner == conn {
		excl = e.exclCount
	}
	excl += e.forcedExcl[conn]
	return share, excl, nil
}

// SetRecord stores a persistent lock record for conn (recording of
// persistent lock information "to enable fast lock recovery in the
// event of an MVS system failure while holding lock resources").
func (s *LockStructure) SetRecord(ctx context.Context, conn, resource string, mode LockMode) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mSetRec, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.conns[conn] {
		return fmt.Errorf("%w: %q", ErrNotConnected, conn)
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	m := s.records[conn]
	if m == nil {
		m = make(map[string]LockRecord)
		s.records[conn] = m
	}
	m[resource] = LockRecord{Connector: conn, Resource: resource, Mode: mode}
	return nil
}

// DeleteRecord removes a persistent lock record (lock released, or
// recovery for that resource complete).
func (s *LockStructure) DeleteRecord(ctx context.Context, conn, resource string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mDelRec, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	m := s.records[conn]
	delete(m, resource)
	if len(m) == 0 {
		delete(s.records, conn)
		delete(s.retained, conn)
	}
	return nil
}

// Records returns the persistent lock records for conn (a peer reads a
// failed connector's records to perform lock recovery), sorted by
// resource.
func (s *LockStructure) Records(ctx context.Context, conn string) ([]LockRecord, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer s.facility.charge(s.mRecords, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	m := s.records[conn]
	out := make([]LockRecord, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	return out, nil
}

// RetainedConnectors lists failed connectors with retained records.
func (s *LockStructure) RetainedConnectors() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	out := make([]string, 0, len(s.retained))
	for c := range s.retained {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// checkRLocked validates entry index and connector under mu.RLock.
func (s *LockStructure) checkRLocked(idx int, conn string) error {
	if idx < 0 || idx >= len(s.entries) {
		return fmt.Errorf("%w: entry %d of %d", ErrBadArgument, idx, len(s.entries))
	}
	if !s.conns[conn] {
		return fmt.Errorf("%w: %q", ErrNotConnected, conn)
	}
	return nil
}

func dedup(in []string) []string {
	out := in[:0]
	var last string
	for i, v := range in {
		if i == 0 || v != last {
			out = append(out, v)
		}
		last = v
	}
	return out
}

// storageBytes estimates the structure's CF storage footprint: each
// lock table entry is a word of interest bits plus record-data budget.
func (s *LockStructure) storageBytes() int64 {
	return int64(len(s.entries)) * 64
}
