// The command table: the one description of every CF command.
//
// A command is data — a Cmd descriptor naming its Kind and carrying
// the union of the command set's parameters — and cmdTable, indexed by
// Kind, says everything else there is to know about it: its metric
// name, structure model, ordering class and key, which descriptor
// fields it reads, which Reply fields it fills, and the function that
// applies it to a concrete structure. Every layer consumes the
// descriptor instead of restating the command: the typed fronts build
// one per call (handle.go), the duplexed pipeline orders, counts, and
// mirrors it (op.go), a batch envelope carries it (CmdBatch), and the
// link encodes exactly the fields the table lists (cflink). A new
// command is one Kind constant, one table row, and one typed method.
package cf

import (
	"context"
	"errors"
	"fmt"

	"sysplex/internal/vclock"
)

// Kind identifies a CF command; it indexes the command table and is
// the command's byte on the link.
type Kind uint8

// The command set: three structure models (§3.3), their context-free
// diagnostics, and the batch envelope.
const (
	CmdLockConnect Kind = iota + 1
	CmdLockObtain
	CmdLockForce
	CmdLockRelease
	CmdLockDelRecord
	CmdLockRecords
	CmdLockInterest

	CmdCacheConnect
	CmdCacheRead
	CmdCacheWrite
	CmdCacheUnregister
	CmdCacheCastoutBegin
	CmdCacheCastoutEnd
	CmdCacheChangedBlocks
	CmdCacheRegistered
	CmdCacheVersion

	CmdListConnect
	CmdListSetLock
	CmdListReleaseLock
	CmdListWrite
	CmdListRead
	CmdListReadFirst
	CmdListPop
	CmdListDelete
	CmdListMove
	CmdListSetAdjunct
	CmdListMonitor
	CmdListLockHolder
	CmdListLen
	CmdListEntries
	CmdListTotalEntries

	// CmdBatch is the envelope: Sub carries up to MaxBatchOps commands of
	// one model through the pipeline (and across the link) in a single
	// traversal. See DESIGN §13.
	CmdBatch

	kindCount
)

// MaxBatchOps bounds one batch envelope. Keeps a single envelope's
// stripe footprint and wire frame bounded; exploiters chunk above it.
const MaxBatchOps = 1024

// Cmd is one CF command as data: its Kind plus the union of the
// command set's parameters. Each kind reads exactly the fields its
// table row lists (Kind.Fields); the rest are ignored and do not cross
// the link. Descriptors travel by value so the one-command path never
// touches the heap.
type Cmd struct {
	Kind    Kind
	Cache   bool   // cache write: retain the data in the structure
	Changed bool   // cache write: mark the block changed (castout pending)
	Conn    string // issuing connector
	Name    string // lock resource / cache block name / list entry ID
	Key     string // list entry key (write) / adjunct area (setadjunct) / lock owner
	Idx     int    // lock table entry / list header / serialized-list lock entry

	VecIdx  int      // connector's local vector index (cache read/write, list monitor)
	Mode    LockMode // lock commands
	Order   Order    // list write / move
	Version uint64   // cache castout-end
	Cond    Cond     // list conditional execution

	Data   []byte     // cache block / list entry payload
	Vector *BitVector // connect: the connector's system-owned vector
	Sub    []Cmd      // CmdBatch: the envelope's subcommands
}

// Reply is the result union of the command set. Each kind fills exactly
// the fields its table row lists; a command with no result returns the
// zero Reply.
type Reply struct {
	Flag    bool         // obtain: granted / cache read: hit
	N, M    int          // interest (share, exclusive) / list lengths
	Version uint64       // cache block version
	Text    string       // serialized-list lock holder / retained-lock holder
	Data    []byte       // cache block data
	Names   []string     // obtain holders / connector and block lists
	Records []LockRecord // lock records
	Entry   ListEntry    // list read / readfirst / pop
	Entries []ListEntry  // list entries diagnostic

	// An envelope's results, index-aligned with its subcommands. Errs
	// holds each subcommand's own outcome: a logical failure of one is
	// reported in its slot and does not stop the rest of the envelope.
	// Sub holds each subcommand's reply; it stays nil when no subcommand
	// returns result fields (the common all-mutation envelope costs one
	// error slot per subcommand, not one Reply).
	Errs []error
	Sub  []Reply
}

// Fields is a set of Cmd fields (F*) or Reply fields (R*). The link
// codec encodes a descriptor or reply by walking its kind's set in bit
// order, so the table is also the wire schema.
type Fields uint16

// Cmd fields.
const (
	FConn Fields = 1 << iota
	FName
	FKey
	FIdx
	FVecIdx
	FMode
	FOrder
	FVersion
	FCond
	FFlags // Cache and Changed
	FData
	FVector
	FSub
)

// Reply fields.
const (
	RFlag Fields = 1 << iota
	RCounts
	RVersion
	RText
	RData
	RNames
	RRecords
	REntry
	REntries
	RSub
)

// applyFunc executes one command against the concrete structure its
// model names (the model is checked before the call).
type applyFunc func(ctx context.Context, s structure, c Cmd) (Reply, error)

// cmdSpec is one row of the command table.
type cmdSpec struct {
	// name is the command's metric and error name: the duplexed front
	// counts it under "cfrm.op."+name. (The facility's cf.cmd.* counters
	// are charged inside the structure methods apply calls.)
	name  string
	model Model
	// order classes the command for ordering and mirroring; key is the
	// single descriptor field (FIdx, FConn or FName) whose value picks
	// an OpKeyed command's ordering stripe.
	order OpOrder
	key   Fields
	// in and out are the descriptor fields read and reply fields filled.
	in, out Fields
	// diag marks a context-free diagnostic: it reads a replica's
	// in-memory state and is not a CF command, so the front neither
	// counts, gates, nor retries it, and the facility does not charge it.
	diag  bool
	apply applyFunc
}

func noReply(err error) (Reply, error) { return Reply{}, err }

// cmdTable is the command set. It is the only place a command is
// described; nothing else in the tree switches on Kind.
var cmdTable = [kindCount]cmdSpec{
	CmdLockConnect: {name: "lock.connect", model: LockModel, order: OpGlobal, in: FConn,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*LockStructure).Connect(ctx, c.Conn))
		}},
	// The lock table commands name the entry (FIdx) and may name the
	// resource on it (FName, with its owner in FKey): the retained
	// screen, the owner's record and the record delete then ride in the
	// same command. Every command on a resource's record is keyed on the
	// resource's entry, so a pair applies them in one order.
	CmdLockObtain: {name: "lock.obtain", model: LockModel, order: OpKeyed, key: FIdx,
		in: FIdx | FConn | FName | FKey | FMode, out: RFlag | RNames | RText,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			r, err := s.(*LockStructure).obtain(ctx, &c, false)
			return Reply{Flag: r.Granted, Names: r.Holders, Text: r.Retained}, err
		}},
	CmdLockForce: {name: "lock.force", model: LockModel, order: OpKeyed, key: FIdx,
		in: FIdx | FConn | FName | FKey | FMode, out: RFlag | RText,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			r, err := s.(*LockStructure).obtain(ctx, &c, true)
			return Reply{Flag: r.Granted, Text: r.Retained}, err
		}},
	CmdLockRelease: {name: "lock.release", model: LockModel, order: OpKeyed, key: FIdx, in: FIdx | FConn | FName | FKey | FMode,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*LockStructure).release(ctx, &c))
		}},
	CmdLockDelRecord: {name: "lock.delrecord", model: LockModel, order: OpKeyed, key: FIdx, in: FIdx | FConn | FName | FKey,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*LockStructure).deleteRecord(ctx, &c))
		}},
	CmdLockRecords: {name: "lock.records", model: LockModel, order: OpRead, in: FConn, out: RRecords,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			recs, err := s.(*LockStructure).Records(ctx, c.Conn)
			return Reply{Records: recs}, err
		}},
	CmdLockInterest: {name: "lock.interest", model: LockModel, diag: true, in: FIdx | FConn, out: RCounts,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			share, excl, err := s.(*LockStructure).Interest(c.Idx, c.Conn)
			return Reply{N: share, M: excl}, err
		}},

	CmdCacheConnect: {name: "cache.connect", model: CacheModel, order: OpGlobal, in: FConn | FVector,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*CacheStructure).Connect(ctx, c.Conn, c.Vector))
		}},
	// Registration mutates the directory, so a read is mirrored.
	CmdCacheRead: {name: "cache.read", model: CacheModel, order: OpKeyed, key: FName,
		in: FConn | FName | FVecIdx, out: RFlag | RVersion | RData,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			r, err := s.(*CacheStructure).ReadAndRegister(ctx, c.Conn, c.Name, c.VecIdx)
			return Reply{Flag: r.Hit, Version: r.Version, Data: r.Data}, err
		}},
	CmdCacheWrite: {name: "cache.write", model: CacheModel, order: OpKeyed, key: FName,
		in: FConn | FName | FVecIdx | FFlags | FData,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*CacheStructure).WriteAndInvalidate(ctx, c.Conn, c.Name, c.Data, c.Cache, c.Changed, c.VecIdx))
		}},
	CmdCacheUnregister: {name: "cache.unregister", model: CacheModel, order: OpKeyed, key: FName, in: FConn | FName,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*CacheStructure).Unregister(ctx, c.Conn, c.Name))
		}},
	CmdCacheCastoutBegin: {name: "cache.castoutbegin", model: CacheModel, order: OpKeyed, key: FName,
		in: FConn | FName, out: RVersion | RData,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			data, ver, err := s.(*CacheStructure).CastoutBegin(ctx, c.Conn, c.Name)
			return Reply{Version: ver, Data: data}, err
		}},
	CmdCacheCastoutEnd: {name: "cache.castoutend", model: CacheModel, order: OpKeyed, key: FName, in: FConn | FName | FVersion,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*CacheStructure).CastoutEnd(ctx, c.Conn, c.Name, c.Version))
		}},
	CmdCacheChangedBlocks: {name: "cache.changedblocks", model: CacheModel, diag: true, out: RNames,
		apply: func(_ context.Context, s structure, _ Cmd) (Reply, error) {
			return Reply{Names: s.(*CacheStructure).ChangedBlocks()}, nil
		}},
	CmdCacheRegistered: {name: "cache.registered", model: CacheModel, diag: true, in: FName, out: RNames,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			return Reply{Names: s.(*CacheStructure).Registered(c.Name)}, nil
		}},
	CmdCacheVersion: {name: "cache.version", model: CacheModel, diag: true, in: FName, out: RVersion,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			return Reply{Version: s.(*CacheStructure).Version(c.Name)}, nil
		}},

	CmdListConnect: {name: "list.connect", model: ListModel, order: OpGlobal, in: FConn | FVector,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).Connect(ctx, c.Conn, c.Vector))
		}},
	CmdListSetLock: {name: "list.setlock", model: ListModel, order: OpGlobal, in: FIdx | FConn,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).SetLock(ctx, c.Idx, c.Conn))
		}},
	CmdListReleaseLock: {name: "list.releaselock", model: ListModel, order: OpGlobal, in: FIdx | FConn,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).ReleaseLock(ctx, c.Idx, c.Conn))
		}},
	CmdListWrite: {name: "list.write", model: ListModel, order: OpKeyed, key: FIdx,
		in: FConn | FIdx | FName | FKey | FData | FOrder | FCond,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).Write(ctx, c.Conn, c.Idx, c.Name, c.Key, c.Data, c.Order, c.Cond))
		}},
	CmdListRead: {name: "list.read", model: ListModel, order: OpRead, in: FConn | FName | FCond, out: REntry,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			e, err := s.(*ListStructure).Read(ctx, c.Conn, c.Name, c.Cond)
			return Reply{Entry: e}, err
		}},
	CmdListReadFirst: {name: "list.readfirst", model: ListModel, order: OpRead, in: FConn | FIdx | FCond, out: REntry,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			e, err := s.(*ListStructure).ReadFirst(ctx, c.Conn, c.Idx, c.Cond)
			return Reply{Entry: e}, err
		}},
	CmdListPop: {name: "list.pop", model: ListModel, order: OpKeyed, key: FIdx, in: FConn | FIdx | FCond, out: REntry,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			e, err := s.(*ListStructure).Pop(ctx, c.Conn, c.Idx, c.Cond)
			return Reply{Entry: e}, err
		}},
	// Delete, Move and SetAdjunct find their list through the entry, so
	// no single list's stripe orders them against a Pop of that list on
	// both replicas: they are ordered structure-wide.
	CmdListDelete: {name: "list.delete", model: ListModel, order: OpGlobal, in: FConn | FName | FCond,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).Delete(ctx, c.Conn, c.Name, c.Cond))
		}},
	CmdListMove: {name: "list.move", model: ListModel, order: OpGlobal, in: FConn | FName | FIdx | FOrder | FCond,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).Move(ctx, c.Conn, c.Name, c.Idx, c.Order, c.Cond))
		}},
	CmdListSetAdjunct: {name: "list.setadjunct", model: ListModel, order: OpGlobal, in: FConn | FName | FKey | FCond,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).SetAdjunct(ctx, c.Conn, c.Name, c.Key, c.Cond))
		}},
	CmdListMonitor: {name: "list.monitor", model: ListModel, order: OpKeyed, key: FIdx, in: FConn | FIdx | FVecIdx,
		apply: func(ctx context.Context, s structure, c Cmd) (Reply, error) {
			return noReply(s.(*ListStructure).Monitor(ctx, c.Conn, c.Idx, c.VecIdx))
		}},
	CmdListLockHolder: {name: "list.lockholder", model: ListModel, diag: true, in: FIdx, out: RText,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			return Reply{Text: s.(*ListStructure).LockHolder(c.Idx)}, nil
		}},
	CmdListLen: {name: "list.len", model: ListModel, diag: true, in: FIdx, out: RCounts,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			return Reply{N: s.(*ListStructure).Len(c.Idx)}, nil
		}},
	CmdListEntries: {name: "list.entries", model: ListModel, diag: true, in: FIdx, out: REntries,
		apply: func(_ context.Context, s structure, c Cmd) (Reply, error) {
			return Reply{Entries: s.(*ListStructure).Entries(c.Idx)}, nil
		}},
	CmdListTotalEntries: {name: "list.totalentries", model: ListModel, diag: true, out: RCounts,
		apply: func(_ context.Context, s structure, _ Cmd) (Reply, error) {
			return Reply{N: s.(*ListStructure).TotalEntries()}, nil
		}},

	// The envelope has no model or apply of its own: execOn runs its
	// subcommands (a row that called back into the table would be an
	// initialization cycle).
	CmdBatch: {name: "batch", in: FSub, out: RSub},
}

// spec returns k's table row, or nil for a byte that names no command.
func (k Kind) spec() *cmdSpec {
	if k == 0 || k >= kindCount {
		return nil
	}
	return &cmdTable[k]
}

// String is the command's metric name, e.g. "lock.obtain".
func (k Kind) String() string {
	if sp := k.spec(); sp != nil {
		return sp.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Model reports the structure model k belongs to (0 for the envelope
// and for an unknown kind).
func (k Kind) Model() Model {
	if sp := k.spec(); sp != nil {
		return sp.model
	}
	return 0
}

// Order reports k's ordering class; OpRead commands are not mirrored.
func (k Kind) Order() OpOrder {
	if sp := k.spec(); sp != nil {
		return sp.order
	}
	return OpRead
}

// Fields reports the descriptor fields k reads and the reply fields it
// fills; ok is false for an unknown kind. This is the link's schema.
func (k Kind) Fields() (in, out Fields, ok bool) {
	sp := k.spec()
	if sp == nil {
		return 0, 0, false
	}
	return sp.in, sp.out, true
}

// checkKind validates a single command against the model of the
// structure it is addressed to.
func checkKind(k Kind, model Model) error {
	sp := k.spec()
	switch {
	case sp == nil || k == CmdBatch:
		return fmt.Errorf("%w: unknown command kind %d", ErrBadArgument, uint8(k))
	case sp.model != model:
		return fmt.Errorf("%w: %s is a %s command, structure is %s", ErrWrongModel, sp.name, sp.model, model)
	}
	return nil
}

// ValidateBatch checks an envelope against a structure model: size
// bounds and every subcommand a known, un-nested command of that
// model. Both ends of the link run it — the front and the transport
// client before a frame is built, the structure before it is touched.
func ValidateBatch(model Model, cmds []Cmd) error {
	if len(cmds) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadArgument)
	}
	if len(cmds) > MaxBatchOps {
		return fmt.Errorf("%w: batch of %d exceeds %d subcommands", ErrBadArgument, len(cmds), MaxBatchOps)
	}
	for i := range cmds {
		sp := cmds[i].Kind.spec()
		if sp == nil || cmds[i].Kind == CmdBatch {
			return fmt.Errorf("%w: subcommand %d: unknown command kind %d", ErrBadArgument, i, uint8(cmds[i].Kind))
		}
		if sp.model != model {
			return fmt.Errorf("%w: subcommand %d is a %s command in a %s batch", ErrBadArgument, i, sp.model, model)
		}
	}
	return nil
}

// Validate checks any descriptor — one command or an envelope — against
// the model of the structure it is addressed to.
func (c *Cmd) Validate(model Model) error {
	if c.Kind == CmdBatch {
		return ValidateBatch(model, c.Sub)
	}
	return checkKind(c.Kind, model)
}

// FirstErr folds an envelope's outcome to one error: the batch-level
// error when there is one, else the first failing subcommand's.
func FirstErr(r Reply, err error) error {
	if err != nil {
		return err
	}
	for _, serr := range r.Errs {
		if serr != nil {
			return serr
		}
	}
	return nil
}

// execOn applies a descriptor to one in-process structure; it is the
// body of every concrete structure's Exec, and therefore what a cflink
// server runs when a frame arrives.
//
// An envelope gets one context gate, then every subcommand in order
// under a detached context. Subcommand begin gates still run
// (down-check, failure injection, per-command metrics); only the
// caller's cancellation is consulted envelope-wide, so a cancellation
// can never split it. Facility death is envelope-level: the whole
// batch fails so the duplexed front can fail over and re-drive it.
func execOn(ctx context.Context, s structure, c *Cmd) (Reply, error) {
	if err := c.Validate(s.model()); err != nil {
		return Reply{}, err
	}
	if c.Kind != CmdBatch {
		return cmdTable[c.Kind].apply(ctx, s, *c)
	}
	if err := vclock.Check(ctx, s.fac().clock); err != nil {
		return Reply{}, err
	}
	dctx := vclock.Detach(ctx)
	out := Reply{Errs: make([]error, len(c.Sub))}
	for i := range c.Sub {
		sp := &cmdTable[c.Sub[i].Kind]
		r, err := sp.apply(dctx, s, c.Sub[i])
		if errors.Is(err, ErrCFDown) {
			return Reply{}, err
		}
		out.Errs[i] = err
		if sp.out != 0 {
			if out.Sub == nil {
				out.Sub = make([]Reply, len(c.Sub))
			}
			out.Sub[i] = r
		}
	}
	return out, nil
}
