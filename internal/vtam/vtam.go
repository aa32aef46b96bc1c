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
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"sysplex/internal/cf"
)

// Errors returned by the network.
var (
	ErrNoInstances = errors.New("vtam: no instances registered for generic name")
	ErrNoSession   = errors.New("vtam: no such session")
)

// Network is the sysplex's SNA network image. All systems share one
// Network backed by one CF list structure (ISTGENERIC).
type Network struct {
	ls   cf.List
	conn string // the VTAM connector identity used at the CF

	mu       sync.Mutex
	sessions map[string]Session
	nextSess uint64
	rr       uint64                    // round-robin cursor for tied logon scores
	weights  func() map[string]float64 // WLM advice (may be nil)
}

// Instance is one registered application instance.
type Instance struct {
	Generic  string `json:"generic"`
	Member   string `json:"member"`
	System   string `json:"system"`
	Sessions int    `json:"sessions"`
}

// Session is a bound user session.
type Session struct {
	ID      string
	Generic string
	Member  string
	System  string
}

// New creates the network image over a CF list structure. weights, if
// non-nil, supplies WLM routing weights by system name.
func New(ctx context.Context, ls cf.List, weights func() map[string]float64) (*Network, error) {
	n := &Network{
		ls:       ls,
		conn:     "VTAM",
		sessions: make(map[string]Session),
		weights:  weights,
	}
	if err := ls.Connect(ctx, n.conn, nil); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Network) listOf(generic string) int {
	h := fnv.New32a()
	h.Write([]byte(generic))
	return int(h.Sum32() % uint32(n.ls.Lists()))
}

func entryID(generic, member string) string { return "GR." + generic + "." + member }

// Register adds an instance under a generic name.
func (n *Network) Register(ctx context.Context, generic, member, system string) error {
	return n.writeInstance(ctx, Instance{Generic: generic, Member: member, System: system})
}

func (n *Network) writeInstance(ctx context.Context, inst Instance) error {
	raw, err := json.Marshal(inst)
	if err != nil {
		return err
	}
	return n.ls.Write(ctx, n.conn, n.listOf(inst.Generic), entryID(inst.Generic, inst.Member), inst.Generic, raw, cf.Keyed, cf.Cond{})
}

// Deregister removes an instance (planned shutdown).
func (n *Network) Deregister(ctx context.Context, generic, member string) error {
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
		var inst Instance
		if err := json.Unmarshal(e.Data, &inst); err != nil {
			continue
		}
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out, nil
}

// Logon resolves a generic name to an instance and binds a session.
// Selection balances WLM weight against current session counts: the
// instance with the smallest sessions/weight ratio wins.
func (n *Network) Logon(ctx context.Context, generic string) (Session, error) {
	instances, err := n.Instances(generic)
	if err != nil {
		return Session{}, err
	}
	if len(instances) == 0 {
		return Session{}, fmt.Errorf("%w: %q", ErrNoInstances, generic)
	}
	var w map[string]float64
	if n.weights != nil {
		w = n.weights()
	}
	bestScore := score(instances[0], w)
	for i := 1; i < len(instances); i++ {
		if s := score(instances[i], w); s < bestScore {
			bestScore = s
		}
	}
	// Rotate among (near-)tied instances so equally attractive members
	// share logons instead of the alphabetically first taking them all.
	var ties []int
	for i := range instances {
		if score(instances[i], w) <= bestScore*1.05 {
			ties = append(ties, i)
		}
	}
	n.mu.Lock()
	n.rr++
	best := ties[int(n.rr)%len(ties)]
	n.mu.Unlock()
	chosen := instances[best]
	chosen.Sessions++
	if err := n.writeInstance(ctx, chosen); err != nil {
		return Session{}, err
	}
	n.mu.Lock()
	n.nextSess++
	sess := Session{
		ID:      fmt.Sprintf("S%06d", n.nextSess),
		Generic: generic,
		Member:  chosen.Member,
		System:  chosen.System,
	}
	n.sessions[sess.ID] = sess
	n.mu.Unlock()
	return sess, nil
}

// score orders instances: fewer sessions per unit of WLM weight is
// better. Unknown systems get a tiny weight so they are used last.
func score(inst Instance, weights map[string]float64) float64 {
	w := 1.0
	if weights != nil {
		if v, ok := weights[inst.System]; ok {
			w = v
		} else {
			w = 0.001
		}
	}
	if w <= 0 {
		w = 0.001
	}
	return (float64(inst.Sessions) + 1) / w
}

// Logoff unbinds a session and decrements the instance session count.
func (n *Network) Logoff(ctx context.Context, sessionID string) error {
	n.mu.Lock()
	sess, ok := n.sessions[sessionID]
	if ok {
		delete(n.sessions, sessionID)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, sessionID)
	}
	e, err := n.ls.Read(ctx, n.conn, entryID(sess.Generic, sess.Member), cf.Cond{})
	if err != nil {
		return nil // instance gone (failed system cleanup)
	}
	var inst Instance
	if err := json.Unmarshal(e.Data, &inst); err != nil {
		return err
	}
	if inst.Sessions > 0 {
		inst.Sessions--
	}
	return n.writeInstance(ctx, inst)
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
	// Remove registrations across all lists.
	for list := 0; list < n.ls.Lists(); list++ {
		for _, e := range n.ls.Entries(list) {
			var inst Instance
			if err := json.Unmarshal(e.Data, &inst); err != nil {
				continue
			}
			if inst.System == sys {
				// Best-effort cleanup of the failed system's instances;
				// a leftover entry is re-swept on the next takeover.
				_ = n.ls.Delete(ctx, n.conn, e.ID, cf.Cond{})
			}
		}
	}
	n.mu.Lock()
	for id, s := range n.sessions {
		if s.System == sys {
			delete(n.sessions, id)
		}
	}
	n.mu.Unlock()
}
