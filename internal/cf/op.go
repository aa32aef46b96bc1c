// Command pipeline of the duplexed front.
//
// Every CF command issued through a Duplexed front is a Cmd descriptor
// executed by its structure's pair through one pipeline with a fixed
// stage order (DESIGN §10):
//
//	validate → gate → metrics → inject → route → retry
//
// validate checks the descriptor against the command table and the
// structure's model; gate polls the context (cancellation + vclock
// deadline) so a dead command fails before any replica is touched;
// metrics counts the command per kind (handles cached, no registry
// lookup on the fast path); inject runs an optional test-installed
// fault hook; route classifies the command by its table row (read /
// keyed / global) and takes the pair's ordering locks; retry applies it
// to the primary, mirrors mutations to the secondary under a detached
// context, and re-drives it after an in-line failover, bounded by
// maxFailoverRetries with doubling capped backoff.
//
// A batch envelope is the same traversal over several subcommands: one
// gate, each subcommand counted under its own kind, the union of their
// ordering stripes, one apply per replica. A single command is the
// envelope-of-one case of the same code.
package cf

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// OpOrder classifies a command for ordering and mirroring.
type OpOrder int

const (
	// OpRead: primary-only read; concurrent with every other command.
	OpRead OpOrder = iota
	// OpKeyed: mutating; ordered only against commands with the same key
	// — per-key ordering is all replica convergence requires.
	OpKeyed
	// OpGlobal: mutating; ordered against everything on the structure
	// (commands whose effect spans keys, e.g. Connect, list Move).
	OpGlobal
)

// String names the order class.
func (o OpOrder) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpKeyed:
		return "keyed"
	case OpGlobal:
		return "global"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Op is one CF command presented to a fault-injection hook: a uniform
// envelope carrying the command identity (structure, kind, order
// class). The pipeline materializes one only when a hook is installed.
type Op struct {
	// Structure is the target structure name.
	Structure string
	// Kind identifies the command for metrics and errors, e.g.
	// "lock.obtain"; a batch envelope is "batch".
	Kind string
	// Order is the command's ordering/mirroring class (an envelope's is
	// the widest of its subcommands').
	Order OpOrder
}

// Failover retry bounds. A command that still sees ErrCFDown after
// maxFailoverRetries attempts surfaces the outage wrapped with the
// attempt count.
const (
	maxFailoverRetries = 4
	retryBackoffBase   = 100 * time.Microsecond
	retryBackoffMax    = 1600 * time.Microsecond
)

// SetInject installs fn ahead of the route and retry stages: returning
// a non-nil error fails the command without touching any replica. The
// hook is handed a copy of the Op. A nil fn removes the hook.
func (d *Duplexed) SetInject(fn func(ctx context.Context, op *Op) error) {
	if fn == nil {
		d.inject.Store(nil)
		return
	}
	h := fn
	d.inject.Store(&h)
}

// stripe picks the ordering stripe of a keyed command from the
// descriptor field its table row names: same key → same stripe → same
// order on both replicas. No key string is built.
func (c *Cmd) stripe(key Fields) uint {
	switch key {
	case FIdx:
		return uint(c.Idx) % pairStripes
	case FConn:
		return pairStripeIdx(c.Conn)
	default:
		return pairStripeIdx(c.Name)
	}
}

// Exec runs one descriptor against the named structure: the
// synchronous sibling of RunAsync, for callers that hold descriptors
// rather than a typed front.
func (d *Duplexed) Exec(ctx context.Context, structure string, c Cmd) (Reply, error) {
	p := d.pair(structure)
	if p == nil {
		return Reply{}, fmt.Errorf("%w: %q", ErrNoStructure, structure)
	}
	return p.Exec(ctx, c)
}

// Exec runs one descriptor — a command or an envelope — through the
// pipeline stages in their fixed order. The typed structure fronts and
// asynchronous dispatch use it as their uniform entry point. The stages
// are plain statements in one method and the descriptor and reply
// travel by value, so the fast path adds no heap allocation over
// applying the command directly.
//
// No-partial-effect: the primary apply sees the caller's context, and
// the structure's begin gate (for an envelope, its one batch gate) is
// the only point that consults it — a cancellation therefore lands
// either before the primary mutates (context error, no effect
// anywhere) or not at all. Once the primary has applied, the secondary
// mirror runs under a detached context so the pair cannot be split by
// a cancellation between replicas.
//
// Envelopes: a subcommand's logical failure is reported in its reply
// slot and does not stop the rest; only a facility failure fails the
// envelope as a whole, which is what lets retry re-drive all of it
// after a failover — the promoted replica never saw any of it (the
// mirror runs only after the primary completes the whole envelope), so
// the survivors still agree.
func (p *pair) Exec(ctx context.Context, c Cmd) (r Reply, err error) {
	d := p.d
	// validate: a known command (or envelope of them) of this model.
	if err := c.Validate(p.model); err != nil {
		return Reply{}, err
	}
	if c.Kind != CmdBatch && cmdTable[c.Kind].diag {
		// Diagnostics read the primary replica's in-memory state; they
		// are not CF commands and skip every later stage.
		p.rw.RLock()
		defer p.rw.RUnlock()
		h, err := p.handles()
		if err != nil {
			return Reply{}, err
		}
		return h.pri.Exec(ctx, c)
	}
	// gate: fail cancelled or deadline-expired commands with the
	// context's error before any replica is touched.
	if err := vclock.Check(ctx, d.clock); err != nil {
		return Reply{}, err
	}
	// metrics: count each command this descriptor stands for — itself,
	// or the envelope's subcommands and then the envelope — under its
	// own kind, and classify it: the widest order class present and the
	// set of ordering stripes (pairStripes == 64, so the set is one
	// word).
	var stripes uint64
	ord := OpRead
	if c.Kind == CmdBatch {
		for i := range c.Sub {
			d.count(&c.Sub[i], &ord, &stripes)
		}
		d.countEnvelope(c.Sub)
	} else {
		d.count(&c, &ord, &stripes)
	}
	// inject: run the installed fault hook, if any (tests use it to
	// fail or delay specific commands at an exact pipeline position).
	// The steady-state cost is one atomic load.
	if fn := d.inject.Load(); fn != nil {
		hop := Op{Structure: p.name, Kind: cmdTable[c.Kind].name, Order: ord}
		if err := (*fn)(ctx, &hop); err != nil {
			return Reply{}, err
		}
	}
	// route: take the ordering locks the class requires — the whole
	// structure for a global command, else every stripe a keyed
	// subcommand hashes to, ascending (the order eachPair walks, so
	// envelopes cannot deadlock each other). They are held across
	// failover retries so a re-driven command keeps its position in the
	// per-key order.
	if ord == OpGlobal {
		p.rw.Lock()
		defer p.rw.Unlock()
	} else {
		p.rw.RLock()
		defer p.rw.RUnlock()
		if ord == OpKeyed {
			for m := stripes; m != 0; m &= m - 1 {
				p.stripes[bits.TrailingZeros64(m)].Lock()
			}
			defer p.unlockStripes(stripes)
		}
	}
	// retry: apply to the primary, mirroring mutations to the
	// secondary; after an in-line failover the command is re-driven
	// against the refreshed handles. Retries are capped; between
	// attempts the context is re-polled (a cancelled command stops
	// retrying — nothing was applied, so stopping is safe) and later
	// attempts back off with a doubling, capped sleep on the injected
	// clock.
	backoff := time.Duration(0)
	for attempt := 1; ; attempt++ {
		h, err := p.handles()
		if err != nil {
			return Reply{}, err
		}
		start := d.clock.Now()
		// r and err are the named results: the primary's reply lands
		// in the caller's slot without a second copy.
		r, err = h.pri.Exec(ctx, c)
		if err != nil {
			if errors.Is(err, ErrCFDown) {
				if !d.failover(h.priNode) {
					return Reply{}, err
				}
				if attempt >= maxFailoverRetries {
					return Reply{}, fmt.Errorf("cf: %s on %q failed after %d failover retries: %w",
						cmdTable[c.Kind].name, p.name, attempt, ErrCFDown)
				}
				d.cRetried.Inc()
				if cerr := vclock.Check(ctx, d.clock); cerr != nil {
					return Reply{}, cerr
				}
				if backoff > 0 {
					d.clock.Sleep(backoff)
				}
				backoff = min(max(backoff*2, retryBackoffBase), retryBackoffMax)
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The primary's gate rejected the command before any
				// mutation; mirroring it would apply it on the secondary
				// only (the detached mirror context cannot be cancelled)
				// and manufacture divergence out of a clean cancellation.
				return Reply{}, err
			}
		}
		if ord != OpRead && h.sec != nil {
			sr, serr := h.sec.Exec(vclock.Detach(ctx), c)
			if !sameOutcome(err, serr) || !sameSubOutcomes(c.Sub, r.Errs, sr.Errs) {
				d.breakDuplex(h.secNode)
			}
			d.hFanout.Observe(d.clock.Since(start))
		}
		return r, err
	}
}

// count is the metrics stage for one command: it counts c under its
// kind (counter handles are resolved at construction, so this is one
// array read and one atomic increment) and widens the descriptor's
// order class and stripe set by c's.
func (d *Duplexed) count(c *Cmd, ord *OpOrder, stripes *uint64) {
	sp := &cmdTable[c.Kind]
	if !sp.diag {
		d.opCounters[c.Kind].Inc()
	}
	if sp.order > *ord {
		*ord = sp.order
	}
	if sp.order == OpKeyed {
		*stripes |= 1 << c.stripe(sp.key)
	}
}

func (p *pair) unlockStripes(stripes uint64) {
	for m := stripes; m != 0; m &= m - 1 {
		p.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// sameOutcome reports whether primary and secondary completed a
// mirrored command identically (both clean, or the same error).
func sameOutcome(perr, serr error) bool {
	if (perr == nil) != (serr == nil) {
		return false
	}
	return perr == nil || perr.Error() == serr.Error()
}

// sameSubOutcomes compares a mirrored envelope's per-subcommand
// outcomes. Read subcommands are skipped: they are not ordered against
// concurrent mutations, so the replicas may legitimately answer them
// differently. A single command has no sub-outcomes and compares equal.
func sameSubOutcomes(subs []Cmd, pri, sec []error) bool {
	if len(pri) != len(sec) {
		return false
	}
	for i := range pri {
		if cmdTable[subs[i].Kind].order != OpRead && !sameOutcome(pri[i], sec[i]) {
			return false
		}
	}
	return true
}

// Batch occupancy instrumentation: cfrm.batch.ops totals subcommands
// shipped in envelopes; cfrm.batch.occ.* is a fixed-bound
// ops-per-envelope histogram (1, 2–7, 8–31, 32–127, 128+).
var batchOccNames = [...]string{"1", "2_7", "8_31", "32_127", "128p"}

func batchOccBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n < 8:
		return 1
	case n < 32:
		return 2
	case n < 128:
		return 3
	default:
		return 4
	}
}

// countEnvelope counts a batch envelope once — under cfrm.op.batch
// (with the other kinds), the occupancy buckets, and the issuing
// connector's attribution pair RMF's clone sections read.
func (d *Duplexed) countEnvelope(subs []Cmd) {
	d.opCounters[CmdBatch].Inc()
	d.cBatchOps.Add(int64(len(subs)))
	d.cBatchOcc[batchOccBucket(len(subs))].Inc()
	if conn := subs[0].Conn; conn != "" {
		cnt, ops := d.connBatchCounters(conn)
		cnt.Inc()
		ops.Add(int64(len(subs)))
	}
}

// connBatchCounters returns the per-connector batch attribution
// counters, cached so the hot batch path pays the registry's string
// concatenation and map lookup once per connector, not per envelope.
func (d *Duplexed) connBatchCounters(conn string) (cnt, ops *metrics.Counter) {
	if v, ok := d.batchConn.Load(conn); ok {
		p := v.(*[2]*metrics.Counter)
		return p[0], p[1]
	}
	v, _ := d.batchConn.LoadOrStore(conn, &[2]*metrics.Counter{
		d.reg.Counter("cfrm.batch.count." + conn),
		d.reg.Counter("cfrm.batch.ops." + conn),
	})
	p := v.(*[2]*metrics.Counter)
	return p[0], p[1]
}
