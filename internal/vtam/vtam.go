// Package vtam implements VTAM Generic Resources (§5.3): the single
// network image for the sysplex. Subsystem instances (e.g. every CICS
// region) register under one generic name in a CF list structure; user
// logons to the generic name are resolved to a specific instance using
// WLM routing weights and current session counts, so "users can simply
// logon to CICS without having to specify or be cognizant of which
// system their session will be dynamically bound to".
package vtam

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sysplex/internal/cf"
	"sysplex/internal/wire"
)

// Errors returned by the network.
var (
	ErrNoInstances = errors.New("vtam: no instances registered for generic name")
	ErrNoSession   = errors.New("vtam: no such session")
)

// Network is the sysplex's SNA network image. All systems share one
// Network backed by one CF list structure (ISTGENERIC).
//
// The list structure is the shared image of every registration and its
// session count; the Network also keeps a table of the registrations it
// writes, so a logon picks its instance without reading the structure
// and a logon or logoff costs one CF write.
type Network struct {
	ls   cf.List
	conn string // the VTAM connector identity used at the CF

	mu       sync.Mutex
	regs     map[string][]*registration // by generic name, sorted by member
	sessions map[string]*registration   // bound sessions by ID
	nextSess uint64
	rr       uint64                    // round-robin cursor for tied logon scores
	weights  func() map[string]float64 // WLM advice (may be nil)
}

// registration is one instance's row in the table. Its CF writes are
// ordered by mu and each carries the session count current when it is
// written, so the entry ends exact whatever order logons and logoffs
// reach the count in.
type registration struct {
	generic, member, system string
	id                      string // the list entry ID
	list                    int    // the list header holding the entry
	sessions                atomic.Int64

	mu   sync.Mutex
	gone bool // set before the entry is deleted: no write follows
}

// Instance is one registered application instance.
type Instance struct {
	Generic  string
	Member   string
	System   string
	Sessions int
}

// An instance's list-entry image: layout byte, then Generic, Member and
// System as wire strings and Sessions as a wire int. Logon and Logoff
// each write one, so this is a per-transaction record.
const instanceLayout = 1

func (inst Instance) encode() []byte {
	e := wire.Record(instanceLayout, 8+len(inst.Generic)+len(inst.Member)+len(inst.System))
	e.Str(inst.Generic)
	e.Str(inst.Member)
	e.Str(inst.System)
	e.Int(inst.Sessions)
	return e.Buf
}

func decodeInstance(raw []byte) (Instance, error) {
	d := wire.OpenRecord(raw, instanceLayout)
	inst := Instance{Generic: d.Str(), Member: d.Str(), System: d.Str(), Sessions: d.Int()}
	if err := d.Finish(); err != nil {
		return Instance{}, fmt.Errorf("vtam: instance record: %w", err)
	}
	return inst, nil
}

// Session is a bound user session.
type Session struct {
	ID      string
	Generic string
	Member  string
	System  string
}

// New creates the network image over a CF list structure and loads the
// registrations it already holds. weights, if non-nil, supplies WLM
// routing weights by system name and must return a map the caller does
// not modify.
func New(ctx context.Context, ls cf.List, weights func() map[string]float64) (*Network, error) {
	n := &Network{
		ls:       ls,
		conn:     "VTAM",
		regs:     make(map[string][]*registration),
		sessions: make(map[string]*registration),
		weights:  weights,
	}
	if err := ls.Connect(ctx, n.conn, nil); err != nil {
		return nil, err
	}
	for list := 0; list < ls.Lists(); list++ {
		for _, e := range ls.Entries(list) {
			inst, err := decodeInstance(e.Data)
			if err != nil {
				return nil, err
			}
			r := n.newRegistration(inst.Generic, inst.Member, inst.System)
			r.sessions.Store(int64(inst.Sessions))
			n.insertLocked(r)
		}
	}
	return n, nil
}

func (n *Network) listOf(generic string) int {
	h := fnv.New32a()
	h.Write([]byte(generic))
	return int(h.Sum32() % uint32(n.ls.Lists()))
}

func entryID(generic, member string) string { return "GR." + generic + "." + member }

func (n *Network) newRegistration(generic, member, system string) *registration {
	return &registration{generic: generic, member: member, system: system,
		id: entryID(generic, member), list: n.listOf(generic)}
}

// insertLocked puts r in the table in member order.
func (n *Network) insertLocked(r *registration) {
	regs := n.regs[r.generic]
	i := sort.Search(len(regs), func(i int) bool { return regs[i].member >= r.member })
	n.regs[r.generic] = slices.Insert(regs, i, r)
}

// removeLocked takes a registration out of the table; nil if absent.
func (n *Network) removeLocked(generic, member string) *registration {
	regs := n.regs[generic]
	for i, r := range regs {
		if r.member == member {
			n.regs[generic] = slices.Delete(regs, i, i+1)
			return r
		}
	}
	return nil
}

// store writes r's image with the count current now. It writes nothing
// and reports false once r is retired.
func (n *Network) store(ctx context.Context, r *registration) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gone {
		return false, nil
	}
	inst := Instance{Generic: r.generic, Member: r.member, System: r.system, Sessions: int(r.sessions.Load())}
	return true, n.ls.Write(ctx, n.conn, r.list, r.id, r.generic, inst.encode(), cf.Keyed, cf.Cond{})
}

// retire marks r gone. The caller has taken r out of the table, and
// deletes its entry only after retire returns, so no write of r can
// land after the delete.
func (r *registration) retire() {
	r.mu.Lock()
	r.gone = true
	r.mu.Unlock()
}

// Register adds an instance under a generic name. Registering a member
// again replaces it with a count of zero.
func (n *Network) Register(ctx context.Context, generic, member, system string) error {
	n.mu.Lock()
	old := n.removeLocked(generic, member)
	n.mu.Unlock()
	if old != nil {
		old.retire()
	}
	r := n.newRegistration(generic, member, system)
	if _, err := n.store(ctx, r); err != nil {
		return err
	}
	n.mu.Lock()
	n.insertLocked(r)
	n.mu.Unlock()
	return nil
}

// Deregister removes an instance (planned shutdown).
func (n *Network) Deregister(ctx context.Context, generic, member string) error {
	n.mu.Lock()
	r := n.removeLocked(generic, member)
	n.mu.Unlock()
	if r != nil {
		r.retire()
	}
	err := n.ls.Delete(ctx, n.conn, entryID(generic, member), cf.Cond{})
	if errors.Is(err, cf.ErrEntryNotFound) {
		return nil
	}
	return err
}

// Instances lists the instances registered under a generic name.
func (n *Network) Instances(generic string) ([]Instance, error) {
	var out []Instance
	for _, e := range n.ls.Entries(n.listOf(generic)) {
		if e.Key != generic {
			continue
		}
		inst, err := decodeInstance(e.Data)
		if err != nil {
			continue
		}
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out, nil
}

// Logon resolves a generic name to an instance and binds a session.
// Selection balances WLM weight against current session counts: the
// instance with the smallest sessions/weight ratio wins. The pick reads
// the table; the only CF command is the write of the new count.
func (n *Network) Logon(ctx context.Context, generic string) (Session, error) {
	var w map[string]float64
	if n.weights != nil {
		w = n.weights()
	}
	for {
		n.mu.Lock()
		r := n.pickLocked(n.regs[generic], w)
		if r == nil {
			n.mu.Unlock()
			return Session{}, fmt.Errorf("%w: %q", ErrNoInstances, generic)
		}
		r.sessions.Add(1)
		n.mu.Unlock()
		written, err := n.store(ctx, r)
		if err != nil {
			r.sessions.Add(-1)
			return Session{}, err
		}
		if !written {
			continue // retired since the pick, and out of the table: pick again
		}
		n.mu.Lock()
		n.nextSess++
		id := fmt.Sprintf("S%06d", n.nextSess)
		n.sessions[id] = r
		n.mu.Unlock()
		return Session{ID: id, Generic: generic, Member: r.member, System: r.system}, nil
	}
}

// pickLocked returns the best-scoring registration, rotating among
// (near-)tied ones so equally attractive members share logons instead
// of the alphabetically first taking them all.
func (n *Network) pickLocked(regs []*registration, w map[string]float64) *registration {
	if len(regs) == 0 {
		return nil
	}
	best := score(regs[0], w)
	for _, r := range regs[1:] {
		if s := score(r, w); s < best {
			best = s
		}
	}
	ties := 0
	for _, r := range regs {
		if score(r, w) <= best*1.05 {
			ties++
		}
	}
	n.rr++
	k := int(n.rr % uint64(ties))
	for _, r := range regs {
		if score(r, w) <= best*1.05 {
			if k == 0 {
				return r
			}
			k--
		}
	}
	return nil // unreachable: k < ties
}

// score orders instances: fewer sessions per unit of WLM weight is
// better. Unknown systems get a tiny weight so they are used last.
func score(r *registration, weights map[string]float64) float64 {
	w := 1.0
	if weights != nil {
		if v, ok := weights[r.system]; ok {
			w = v
		} else {
			w = 0.001
		}
	}
	if w <= 0 {
		w = 0.001
	}
	return (float64(r.sessions.Load()) + 1) / w
}

// Logoff unbinds a session and writes its instance's decremented count.
func (n *Network) Logoff(ctx context.Context, sessionID string) error {
	n.mu.Lock()
	r, ok := n.sessions[sessionID]
	if ok {
		delete(n.sessions, sessionID)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, sessionID)
	}
	r.sessions.Add(-1)
	_, err := n.store(ctx, r) // writes nothing if the instance is gone
	return err
}

// Sessions reports the number of bound sessions per system for a
// generic name (from the shared registrations).
func (n *Network) Sessions(generic string) (map[string]int, error) {
	instances, err := n.Instances(generic)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, inst := range instances {
		out[inst.System] += inst.Sessions
	}
	return out, nil
}

// CleanupSystem removes all registrations of instances that lived on a
// failed system and drops their bound sessions; wire it to
// xcf.Sysplex.OnSystemFailed. Subsequent logons bind to survivors.
func (n *Network) CleanupSystem(ctx context.Context, sys string) {
	n.mu.Lock()
	var dead []*registration
	for generic, regs := range n.regs {
		n.regs[generic] = slices.DeleteFunc(regs, func(r *registration) bool {
			if r.system != sys {
				return false
			}
			dead = append(dead, r)
			return true
		})
	}
	for id, r := range n.sessions {
		if r.system == sys {
			delete(n.sessions, id)
		}
	}
	n.mu.Unlock()
	for _, r := range dead {
		r.retire()
	}
	// Remove the registrations across all lists, table or not.
	for list := 0; list < n.ls.Lists(); list++ {
		for _, e := range n.ls.Entries(list) {
			inst, err := decodeInstance(e.Data)
			if err != nil {
				continue
			}
			if inst.System == sys {
				// Best-effort cleanup of the failed system's instances;
				// a leftover entry is re-swept on the next takeover.
				_ = n.ls.Delete(ctx, n.conn, e.ID, cf.Cond{})
			}
		}
	}
}
