package cf

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestBatchMirrorsToBothReplicas(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{3, 9, 17} {
		if _, err := ls.Obtain(context.Background(), e, "SYS1", Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	errs, err := ls.Batch(context.Background(), []Cmd{
		{Kind: CmdLockSetRecord, Conn: "SYS1", Name: "ACCT/k1", Mode: Exclusive},
		{Kind: CmdLockRelease, Idx: 3, Conn: "SYS1", Mode: Exclusive},
		{Kind: CmdLockRelease, Idx: 9, Conn: "SYS1", Mode: Exclusive},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, e := range errs.Errs {
		if e != nil {
			t.Fatalf("sub %d: %v", i, e)
		}
	}
	// Both replicas must agree on interest and records.
	for _, f := range []*Facility{pri, sec} {
		raw := f.structureByName("IRLM").(*LockStructure)
		for _, e := range []int{3, 9} {
			_, excl, err := raw.Interest(e, "SYS1")
			if err != nil || excl != 0 {
				t.Fatalf("%s: entry %d excl = %d, %v", f.Name(), e, excl, err)
			}
		}
		_, excl, err := raw.Interest(17, "SYS1")
		if err != nil || excl != 1 {
			t.Fatalf("%s: entry 17 excl = %d, %v", f.Name(), excl, err)
		}
		recs, err := raw.Records(context.Background(), "SYS1")
		if err != nil || len(recs) != 1 || recs[0].Resource != "ACCT/k1" {
			t.Fatalf("%s: records = %+v, %v", f.Name(), recs, err)
		}
	}
	if got := d.Metrics().Counter("cfrm.op.batch").Value(); got != 1 {
		t.Fatalf("cfrm.op.batch = %d, want 1", got)
	}
	if got := d.Metrics().Counter("cfrm.batch.ops").Value(); got != 3 {
		t.Fatalf("cfrm.batch.ops = %d, want 3", got)
	}
	if got := d.Metrics().Counter("cfrm.batch.count.SYS1").Value(); got != 1 {
		t.Fatalf("cfrm.batch.count.SYS1 = %d, want 1", got)
	}
}

func TestBatchPerSubErrorsDoNotAbortEnvelope(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateListStructure("WORKQ", 4, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Write(context.Background(), "SYS1", 0, "e1", "", []byte("x"), FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Write(context.Background(), "SYS1", 0, "e2", "", []byte("y"), FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	// Middle subcommand fails logically; the rest of the envelope must
	// still run — that's the per-subcommand status byte contract.
	errs, err := ls.Batch(context.Background(), []Cmd{
		{Kind: CmdListDelete, Conn: "SYS1", Name: "e1"},
		{Kind: CmdListDelete, Conn: "SYS1", Name: "missing"},
		{Kind: CmdListDelete, Conn: "SYS1", Name: "e2"},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if errs.Errs[0] != nil || errs.Errs[2] != nil {
		t.Fatalf("good subs failed: %v, %v", errs.Errs[0], errs.Errs[2])
	}
	if !errors.Is(errs.Errs[1], ErrEntryNotFound) {
		t.Fatalf("sub 1 = %v, want ErrEntryNotFound", errs.Errs[1])
	}
	for _, f := range []*Facility{pri, sec} {
		raw := f.structureByName("WORKQ").(*ListStructure)
		if n := len(raw.Entries(0)); n != 0 {
			t.Fatalf("%s: %d entries left, want 0", f.Name(), n)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	d, _, _ := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Batch(context.Background(), nil); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("empty batch: %v, want ErrBadArgument", err)
	}
	// A subcommand from the wrong model must be rejected up front.
	if _, err := ls.Batch(context.Background(), []Cmd{
		{Kind: CmdListDelete, Conn: "SYS1", Name: "e1"},
	}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("cross-model batch: %v, want ErrBadArgument", err)
	}
	over := make([]Cmd, MaxBatchOps+1)
	for i := range over {
		over[i] = Cmd{Kind: CmdLockRelease, Conn: "SYS1", Mode: Share}
	}
	if _, err := ls.Batch(context.Background(), over); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("oversized batch: %v, want ErrBadArgument", err)
	}
}

func TestAsyncCompletionVector(t *testing.T) {
	d, _, _ := newPair(t)
	ls, err := d.AllocateListStructure("WORKQ", 4, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	a := d.NewAsync("SYS1", 8)
	defer a.Close()
	if a.Vector().Len() != 8 {
		t.Fatalf("vector len = %d", a.Vector().Len())
	}
	// A slot stays occupied until its completion is retrieved, so keep
	// at most Slots() outstanding — the architectural backpressure.
	var comps []*Completion
	for i := 0; i < 20; i++ {
		if len(comps) == a.Slots() {
			if err := comps[0].Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			comps = comps[1:]
		}
		c, err := a.Run(context.Background(), "WORKQ",
			Cmd{Kind: CmdListWrite, Conn: "SYS1", Idx: i % 4, Name: "id" + strconv.Itoa(i), Data: []byte("d")})
		if err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
		comps = append(comps, c)
	}
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		// After retrieval the outcome must stay readable.
		if err := c.Err(); err != nil {
			t.Fatalf("Err %d after Wait: %v", i, err)
		}
	}
	if n := ls.TotalEntries(); n != 20 {
		t.Fatalf("TotalEntries = %d, want 20", n)
	}
	if g := d.Metrics().Gauge("cfrm.async.inflight").Value(); g != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", g)
	}
	if g := d.Metrics().Gauge("cfrm.async.inflight.SYS1").Value(); g != 0 {
		t.Fatalf("per-owner in-flight gauge = %d after drain, want 0", g)
	}
}

func TestAsyncCarriesPerSubErrors(t *testing.T) {
	d, _, _ := newPair(t)
	ls, err := d.AllocateListStructure("WORKQ", 2, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	c, err := d.RunAsync(context.Background(), "WORKQ",
		Cmd{Kind: CmdListDelete, Conn: "SYS1", Name: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("Wait = %v, want ErrEntryNotFound", err)
	}
}

func TestAsyncClosedRejectsNewWork(t *testing.T) {
	d, _, _ := newPair(t)
	if _, err := d.AllocateListStructure("WORKQ", 2, 0, 100); err != nil {
		t.Fatal(err)
	}
	a := d.NewAsync("SYS1", 4)
	a.Close()
	if _, err := a.Run(context.Background(), "WORKQ",
		Cmd{Kind: CmdListDelete, Conn: "SYS1", Name: "x"}); !errors.Is(err, ErrAsyncClosed) {
		t.Fatalf("Run after Close = %v, want ErrAsyncClosed", err)
	}
}

// TestStressCancelMidBatchFailover is the acceptance stress: workers
// fire multi-entry list batches, some through the async interface, some
// with contexts that get cancelled mid-flight, while the primary trips
// dead mid-stream and the pipeline fails over. Afterwards every batch
// must have applied completely or not at all (a cancellation lands
// before the envelope touches a replica, or not at all), and the two
// replicas of a second, non-failing front must be identical. Run with
// -race.
func TestStressCancelMidBatchFailover(t *testing.T) {
	const (
		workers = 6
		batches = 120
		perB    = 4
	)
	for _, failover := range []bool{false, true} {
		failover := failover
		t.Run(fmt.Sprintf("failover=%v", failover), func(t *testing.T) {
			d, pri, sec := newPair(t)
			ls, err := d.AllocateListStructure("WORKQ", 8, 0, workers*batches*perB+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
				t.Fatal(err)
			}
			if failover {
				pri.FailAfter(workers * batches / 3)
			}
			async := d.NewAsync("SYS1", 16)
			defer async.Close()

			outcome := make([][]error, workers) // nil = batch reported success
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				outcome[w] = make([]error, batches)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						cmds := make([]Cmd, perB)
						for k := 0; k < perB; k++ {
							id := fmt.Sprintf("w%d-b%d-k%d", w, b, k)
							cmds[k] = Cmd{Kind: CmdListWrite, Conn: "SYS1", Idx: (w + k) % 8, Name: id, Data: []byte("p")}
						}
						ctx := context.Background()
						var cancel context.CancelFunc
						if b%3 == 0 {
							// Cancel racing the envelope: the gate may or
							// may not see it, but the effect must be
							// all-or-nothing either way.
							ctx, cancel = context.WithCancel(ctx)
							go func() { cancel() }()
						}
						var err error
						if b%5 == 0 {
							var c *Completion
							if c, err = async.Run(ctx, "WORKQ", cmds...); err == nil {
								err = c.Wait()
							}
						} else {
							err = FirstErr(ls.Batch(ctx, cmds))
						}
						outcome[w][b] = err
						if cancel != nil {
							cancel()
						}
					}
				}()
			}
			wg.Wait()

			// Collect what actually landed (reads go to the primary,
			// which after a failover is the promoted survivor).
			present := make(map[string]bool)
			for l := 0; l < 8; l++ {
				for _, e := range ls.Entries(l) {
					present[e.ID] = true
				}
			}
			for w := 0; w < workers; w++ {
				for b := 0; b < batches; b++ {
					n := 0
					for k := 0; k < perB; k++ {
						if present[fmt.Sprintf("w%d-b%d-k%d", w, b, k)] {
							n++
						}
					}
					if n != 0 && n != perB {
						t.Fatalf("batch w%d-b%d partially applied: %d/%d entries", w, b, n, perB)
					}
					if err := outcome[w][b]; err == nil && n != perB {
						t.Fatalf("batch w%d-b%d reported success but %d/%d entries present", w, b, n, perB)
					} else if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("batch w%d-b%d: unexpected error %v", w, b, err)
					}
				}
			}
			if failover {
				if d.Metrics().Counter("cfrm.failover.count").Value() != 1 {
					t.Fatalf("failover never tripped")
				}
				return // the old primary is dead; nothing to compare
			}
			// No failover: the two replicas must hold identical entries.
			for l := 0; l < 8; l++ {
				p := pri.structureByName("WORKQ").(*ListStructure).Entries(l)
				s := sec.structureByName("WORKQ").(*ListStructure).Entries(l)
				if len(p) != len(s) {
					t.Fatalf("list %d: pri %d entries, sec %d", l, len(p), len(s))
				}
				for i := range p {
					if p[i].ID != s[i].ID {
						t.Fatalf("list %d slot %d: pri %q, sec %q", l, i, p[i].ID, s[i].ID)
					}
				}
			}
		})
	}
}

// TestAsyncBackpressureBlocksAtSlotLimit pins the bounded-slot design:
// with every slot in flight, Run blocks until a completion is
// retrieved rather than growing an unbounded queue.
func TestAsyncBackpressureBlocksAtSlotLimit(t *testing.T) {
	d, _, _ := newPair(t)
	ls, err := d.AllocateListStructure("WORKQ", 2, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	// Stall the pipeline so submitted envelopes stay in flight.
	unblock := make(chan struct{})
	d.SetInject(func(ctx context.Context, op *Op) error {
		<-unblock
		return nil
	})
	a := d.NewAsync("SYS1", 2)
	defer a.Close()
	var comps [2]*Completion
	for i := range comps {
		c, err := a.Run(context.Background(), "WORKQ",
			Cmd{Kind: CmdListWrite, Conn: "SYS1", Name: "id" + strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = c
	}
	started := make(chan struct{})
	done := make(chan *Completion, 1)
	go func() {
		close(started)
		c, err := a.Run(context.Background(), "WORKQ",
			Cmd{Kind: CmdListWrite, Conn: "SYS1", Name: "id2"})
		if err != nil {
			t.Error(err)
		}
		done <- c
	}()
	<-started
	select {
	case <-done:
		t.Fatal("third Run returned with both slots in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(unblock)
	d.SetInject(nil)
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := (<-done).Wait(); err != nil {
		t.Fatal(err)
	}
}
