// Package racf implements a RACF-style security manager with a
// sysplex-shared profile cache. §5.1 names RACF among the base MVS
// components exploiting the Coupling Facility: each system caches
// security profiles locally for fast authorization checks, with a CF
// cache structure keeping every copy coherent — so a permit change or
// revocation made on any system takes effect sysplex-wide immediately,
// without message passing or cache timeouts.
//
// The profile database itself lives on shared DASD (a cds.Store); the
// CF cache is the second-level cache between local memory and disk,
// exactly the hierarchy of §3.3.2.
package racf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sysplex/internal/cds"
	"sysplex/internal/cf"
)

// Access is an authority level, ordered.
type Access int

// Access levels (subset of RACF's NONE..ALTER).
const (
	None Access = iota
	Read
	Update
	Alter
)

// String names the access level.
func (a Access) String() string {
	switch a {
	case None:
		return "NONE"
	case Read:
		return "READ"
	case Update:
		return "UPDATE"
	case Alter:
		return "ALTER"
	default:
		return fmt.Sprintf("ACCESS(%d)", int(a))
	}
}

// ErrNoProfile is returned when no profile protects a resource.
var ErrNoProfile = errors.New("racf: no profile for resource")

// AuditEvent records one security-relevant action, in the mould of the
// SMF type-80 records real RACF cuts. Exploiters (cmd/sysplexdemo)
// route these through a System Logger log stream so every member's
// audit trail merges into one sysplex-wide, timestamp-ordered log.
type AuditEvent struct {
	Sys      string `json:"sys"`
	Kind     string `json:"kind"` // "check", "define", "permit"
	User     string `json:"user,omitempty"`
	Resource string `json:"resource"`
	Want     Access `json:"want,omitempty"`
	Granted  bool   `json:"granted"`
}

// Profile is the access definition for one protected resource.
type Profile struct {
	Resource string            `json:"resource"`
	UACC     Access            `json:"uacc"` // universal access
	Permits  map[string]Access `json:"permits,omitempty"`
}

// allows reports whether user may act at level want.
func (p Profile) allows(user string, want Access) bool {
	if lvl, ok := p.Permits[user]; ok {
		return lvl >= want
	}
	return p.UACC >= want
}

// Stats counts a manager's activity.
type Stats struct {
	Checks     int64
	LocalHits  int64 // answered from the local cache (validity bit set)
	GlobalHits int64 // refreshed from the CF cache
	DbReads    int64 // went to the shared database
	Denied     int64
}

// Manager is one system's security manager.
type Manager struct {
	sys   string
	cs    cf.Cache
	vec   *cf.BitVector
	store *cds.Store

	mu    sync.Mutex
	slots map[string]int // resource -> vector index
	byIdx []string       // vector index -> resource
	next  int
	local map[string]Profile
	stats Stats
	audit func(AuditEvent)
}

// OnAudit installs the audit sink; every Check, Define, and Permit
// emits one event. The sink runs on the caller's goroutine, so a slow
// sink backpressures security calls exactly as SMF logging would.
func (m *Manager) OnAudit(fn func(AuditEvent)) {
	m.mu.Lock()
	m.audit = fn
	m.mu.Unlock()
}

func (m *Manager) emitAudit(e AuditEvent) {
	m.mu.Lock()
	fn := m.audit
	m.mu.Unlock()
	if fn != nil {
		e.Sys = m.sys
		fn(e)
	}
}

// New attaches a security manager for system sys to the shared profile
// cache structure and database. slots bounds the local cache size.
func New(ctx context.Context, sys string, cs cf.Cache, store *cds.Store, slots int) (*Manager, error) {
	if slots <= 0 {
		slots = 256
	}
	m := &Manager{
		sys:   sys,
		cs:    cs,
		vec:   cf.NewBitVector(slots),
		store: store,
		slots: make(map[string]int),
		byIdx: make([]string, slots),
		local: make(map[string]Profile),
	}
	if err := cs.Connect(ctx, sys, m.vec); err != nil {
		return nil, err
	}
	return m, nil
}

// System returns the owning system name.
func (m *Manager) System() string { return m.sys }

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func dbKey(resource string) string { return "racf.profile." + resource }

// Define creates or replaces a profile: it is stored in the shared
// database and pushed to the CF cache, cross-invalidating every
// system's local copy — the change is effective sysplex-wide on return.
func (m *Manager) Define(ctx context.Context, p Profile) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := m.store.Update(m.sys, func(v *cds.View) error {
		return v.Set(dbKey(p.Resource), raw)
	}); err != nil {
		return err
	}
	idx := m.slotFor(p.Resource)
	if err := m.cs.WriteAndInvalidate(ctx, m.sys, p.Resource, raw, true, false, idx); err != nil {
		return err
	}
	m.mu.Lock()
	m.local[p.Resource] = p
	m.mu.Unlock()
	m.emitAudit(AuditEvent{Kind: "define", Resource: p.Resource, Granted: true})
	return nil
}

// Permit grants (or with None, effectively revokes) user access on a
// resource and propagates it immediately.
func (m *Manager) Permit(ctx context.Context, resource, user string, level Access) error {
	p, err := m.profile(ctx, resource)
	if err != nil {
		return err
	}
	if p.Permits == nil {
		p.Permits = map[string]Access{}
	}
	p.Permits[user] = level
	if err := m.Define(ctx, p); err != nil {
		return err
	}
	m.emitAudit(AuditEvent{Kind: "permit", User: user, Resource: resource, Want: level, Granted: true})
	return nil
}

// Check authorizes user for access level want on resource. It answers
// from the local cache when the validity bit is set; otherwise it
// refreshes from the CF cache or the shared database.
func (m *Manager) Check(ctx context.Context, user, resource string, want Access) (bool, error) {
	p, err := m.profile(ctx, resource)
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	m.stats.Checks++
	m.mu.Unlock()
	ok := p.allows(user, want)
	if !ok {
		m.mu.Lock()
		m.stats.Denied++
		m.mu.Unlock()
	}
	m.emitAudit(AuditEvent{Kind: "check", User: user, Resource: resource, Want: want, Granted: ok})
	return ok, nil
}

// profile resolves the current profile for a resource.
func (m *Manager) profile(ctx context.Context, resource string) (Profile, error) {
	m.mu.Lock()
	if idx, ok := m.slots[resource]; ok && m.vec.Test(idx) {
		p := m.local[resource]
		m.stats.LocalHits++
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()

	idx := m.slotFor(resource)
	res, err := m.cs.ReadAndRegister(ctx, m.sys, resource, idx)
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	if res.Hit {
		if err := json.Unmarshal(res.Data, &p); err != nil {
			return Profile{}, err
		}
		m.mu.Lock()
		m.stats.GlobalHits++
		m.local[resource] = p
		m.mu.Unlock()
		return p, nil
	}
	// Database read (shared DASD).
	raw, ok, err := m.store.Read(m.sys, dbKey(resource))
	if err != nil {
		return Profile{}, err
	}
	m.mu.Lock()
	m.stats.DbReads++
	m.mu.Unlock()
	if !ok {
		// Best-effort: a failed unregister only costs a spurious
		// cross-invalidate on this vector slot later.
		_ = m.cs.Unregister(ctx, m.sys, resource)
		m.mu.Lock()
		m.vec.Clear(idx)
		m.mu.Unlock()
		return Profile{}, fmt.Errorf("%w: %q", ErrNoProfile, resource)
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return Profile{}, err
	}
	m.mu.Lock()
	m.local[resource] = p
	m.mu.Unlock()
	return p, nil
}

// slotFor assigns (or returns) the local vector index for a resource,
// evicting round-robin when the cache is full.
func (m *Manager) slotFor(resource string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx, ok := m.slots[resource]; ok {
		return idx
	}
	idx := m.next
	m.next = (m.next + 1) % len(m.byIdx)
	if old := m.byIdx[idx]; old != "" {
		delete(m.slots, old)
		delete(m.local, old)
		m.vec.Clear(idx)
		// Deregistration at the CF happens lazily; a stale registration
		// only means one spurious bit clear later.
	}
	m.byIdx[idx] = resource
	m.slots[resource] = idx
	return idx
}
