// The Node/Replica seam: the interfaces the duplexed front routes
// commands to.
//
// A Node is "one CF as reached from this system" — either an
// in-process *Facility (the default fast path) or a transport client
// (internal/cflink) whose facility runs in another process behind real
// coupling links. The pipeline, cfrm
// duplexing, in-line failover, and fencing are all written against
// these interfaces and therefore work identically over either.
package cf

import (
	"context"
	"errors"
	"time"

	"sysplex/internal/metrics"
)

// ErrCloneUnsupported reports a structure-state copy (duplexing
// establishment or rebuild) across a node pairing that cannot ship
// whole-structure images — e.g. from a remote cflink node. Pairs built
// from such nodes are duplexed at allocation time instead: every
// structure is allocated on both replicas and mirrored from the first
// command, so failover needs no copy.
var ErrCloneUnsupported = errors.New("cf: structure clone not supported across this node pairing")

// Node is one coupling facility as addressed by the duplexed front and
// the CFRM manager. *Facility implements it in-process; cflink.Client
// implements it over a network transport.
//
// Failure-injection entry points (Fail, FailAfter) are part of the
// interface because chaos drives must work over any transport: killing
// a remote CF is the scenario the transport exists to make real.
type Node interface {
	Name() string
	Metrics() *metrics.Registry
	StructureNames() []string

	Failed() bool
	Fail()
	FailAfter(n int)

	SetSyncLatency(d time.Duration)
	Deallocate(name string) error

	AllocateLockStructure(name string, entries int) (Lock, error)
	AllocateCacheStructure(name string, maxEntries int) (Cache, error)
	AllocateListStructure(name string, nLists, nLocks, maxEntries int) (List, error)

	// Structure returns the named structure's replica handle, or nil
	// when the node has no such structure.
	Structure(name string) Replica
}

// Replica is one structure image as routed to by the front's command
// pipeline: the single command entry (Exec) plus the
// model-independent lifecycle surface. LockOn, CacheOn and ListOn wrap
// a replica in its model's typed command interface.
type Replica interface {
	// Exec applies one descriptor — a command, or a CmdBatch envelope —
	// to this replica only.
	Executor
	// ReplicaName is the structure name.
	ReplicaName() string
	// ReplicaModel is the structure's behaviour model.
	ReplicaModel() Model
	// ReplicaSize is the structure's fixed geometry: lock table entries
	// for a lock structure, list headers for a list structure, directory
	// capacity for a cache structure. The typed fronts answer Entries,
	// Lists and HashResource from it without a command.
	ReplicaSize() int
	// ReplicaDisconnect cleanly detaches a connector from this replica.
	ReplicaDisconnect(conn string)
	// ReplicaFailConnector marks a connector abnormally terminated on
	// this replica (persistent lock records are retained).
	ReplicaFailConnector(conn string)
	// ReplicaCloneInto re-creates the structure, with a deep copy of
	// its current state, on dst — the duplexing-establishment /
	// rebuild copy. Returns ErrCloneUnsupported when the source handle
	// or the destination node cannot ship whole-structure images.
	ReplicaCloneInto(dst Node) (Replica, error)
}

// Structure returns the named structure's replica handle (nil when
// absent), regardless of the facility's broken state: a structure's
// in-memory image survives the facility failing, standing in for the
// connector-held state a real user-managed rebuild would re-populate.
func (f *Facility) Structure(name string) Replica {
	s := f.structureByName(name)
	if s == nil {
		return nil
	}
	return s.(Replica)
}

// localCloneInto dispatches a concrete structure's cloneInto when dst
// is an in-process facility; any other destination cannot receive a
// raw in-memory image.
func localCloneInto(s structure, dst Node) (Replica, error) {
	df, ok := dst.(*Facility)
	if !ok {
		return nil, ErrCloneUnsupported
	}
	clone, err := s.cloneInto(df)
	if err != nil {
		return nil, err
	}
	return clone.(Replica), nil
}

// Replica conformance for the three concrete structure models. Exec is
// the table-driven entry (execOn); Batch is its envelope form for
// callers holding the structure as a Lock, Cache or List.

func (s *LockStructure) ReplicaName() string           { return s.name }
func (s *LockStructure) ReplicaModel() Model           { return LockModel }
func (s *LockStructure) ReplicaSize() int              { return len(s.entries) }
func (s *LockStructure) ReplicaDisconnect(conn string) { s.disconnect(conn) }
func (s *LockStructure) ReplicaFailConnector(c string) { s.failConnector(c) }
func (s *LockStructure) ReplicaCloneInto(dst Node) (Replica, error) {
	return localCloneInto(s, dst)
}
func (s *LockStructure) Exec(ctx context.Context, c Cmd) (Reply, error) { return execOn(ctx, s, &c) }
func (s *LockStructure) Batch(ctx context.Context, cmds []Cmd) (Reply, error) {
	return batchOn(ctx, s, cmds)
}

func (s *CacheStructure) ReplicaName() string           { return s.name }
func (s *CacheStructure) ReplicaModel() Model           { return CacheModel }
func (s *CacheStructure) ReplicaSize() int              { return s.maxEntries }
func (s *CacheStructure) ReplicaDisconnect(conn string) { s.disconnect(conn) }
func (s *CacheStructure) ReplicaFailConnector(c string) { s.failConnector(c) }
func (s *CacheStructure) ReplicaCloneInto(dst Node) (Replica, error) {
	return localCloneInto(s, dst)
}
func (s *CacheStructure) Exec(ctx context.Context, c Cmd) (Reply, error) { return execOn(ctx, s, &c) }
func (s *CacheStructure) Batch(ctx context.Context, cmds []Cmd) (Reply, error) {
	return batchOn(ctx, s, cmds)
}

func (s *ListStructure) ReplicaName() string           { return s.name }
func (s *ListStructure) ReplicaModel() Model           { return ListModel }
func (s *ListStructure) ReplicaSize() int              { return len(s.lists) }
func (s *ListStructure) ReplicaDisconnect(conn string) { s.disconnect(conn) }
func (s *ListStructure) ReplicaFailConnector(c string) { s.failConnector(c) }
func (s *ListStructure) ReplicaCloneInto(dst Node) (Replica, error) {
	return localCloneInto(s, dst)
}
func (s *ListStructure) Exec(ctx context.Context, c Cmd) (Reply, error) { return execOn(ctx, s, &c) }
func (s *ListStructure) Batch(ctx context.Context, cmds []Cmd) (Reply, error) {
	return batchOn(ctx, s, cmds)
}

func batchOn(ctx context.Context, s structure, cmds []Cmd) (Reply, error) {
	return execOn(ctx, s, &Cmd{Kind: CmdBatch, Sub: cmds})
}

// Interface conformance.
var (
	_ Node    = (*Facility)(nil)
	_ Replica = (*LockStructure)(nil)
	_ Replica = (*CacheStructure)(nil)
	_ Replica = (*ListStructure)(nil)
)
