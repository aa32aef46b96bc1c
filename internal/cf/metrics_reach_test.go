package cf

import (
	"context"
	"strings"
	"testing"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// TestEveryCommandMetricReachable drives every command of all three
// structure models and then checks the registry both ways: every
// registered cf.cmd.* counter was incremented by at least one command
// path, and every command kind the structures resolve at allocation is
// actually registered. This is the guard against handles that are
// registered but never charged (Connect/Records were exactly that) or
// charged through an unregistered name.
func TestEveryCommandMetricReachable(t *testing.T) {
	ctx := context.Background()
	f := New("CF01", vclock.Real())

	// Lock model: every command in the Lock interface.
	ls, err := f.AllocateLockStructure("IRLM", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(ctx, "SYS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Obtain(ctx, 0, "SYS1", Share); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceObtain(ctx, 1, "SYS1", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := ls.Release(ctx, 0, "SYS1", Share); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.ObtainResource(ctx, "SYS1", "RES.A", "TX1", Exclusive); err != nil {
		t.Fatal(err)
	}
	if recs, err := ls.Records(ctx, "SYS1"); err != nil || len(recs) != 1 {
		t.Fatalf("Records = %v, %v", recs, err)
	}
	if err := ls.DeleteRecord(ctx, "SYS1", "RES.A", "TX1"); err != nil {
		t.Fatal(err)
	}

	// Cache model.
	cs, err := f.AllocateCacheStructure("GBP0", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Connect(ctx, "SYS1", NewBitVector(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ReadAndRegister(ctx, "SYS1", "PAGE.1", 0); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteAndInvalidate(ctx, "SYS1", "PAGE.1", []byte("x"), true, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, ver, err := cs.CastoutBegin(ctx, "SYS1", "PAGE.1"); err != nil {
		t.Fatal(err)
	} else if err := cs.CastoutEnd(ctx, "SYS1", "PAGE.1", ver); err != nil {
		t.Fatal(err)
	}
	if err := cs.Unregister(ctx, "SYS1", "PAGE.1"); err != nil {
		t.Fatal(err)
	}

	// List model.
	lst, err := f.AllocateListStructure("LOGQ", 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Connect(ctx, "SYS1", NewBitVector(16)); err != nil {
		t.Fatal(err)
	}
	if err := lst.Monitor(ctx, "SYS1", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := lst.SetLock(ctx, 0, "SYS1"); err != nil {
		t.Fatal(err)
	}
	if err := lst.ReleaseLock(ctx, 0, "SYS1"); err != nil {
		t.Fatal(err)
	}
	if err := lst.Write(ctx, "SYS1", 0, "E1", "K1", []byte("d"), FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lst.Read(ctx, "SYS1", "E1", Cond{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lst.ReadFirst(ctx, "SYS1", 0, Cond{}); err != nil {
		t.Fatal(err)
	}
	if err := lst.SetAdjunct(ctx, "SYS1", "E1", "adj", Cond{}); err != nil {
		t.Fatal(err)
	}
	if err := lst.Move(ctx, "SYS1", "E1", 1, FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lst.Pop(ctx, "SYS1", 1, Cond{}); err != nil {
		t.Fatal(err)
	}
	if err := lst.Write(ctx, "SYS1", 2, "E2", "K2", []byte("d"), LIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	if err := lst.Delete(ctx, "SYS1", "E2", Cond{}); err != nil {
		t.Fatal(err)
	}

	// Every registered command counter must have been driven.
	var zero []string
	seen := map[string]bool{}
	f.Metrics().Walk(metrics.Visitor{Counter: func(name string, c *metrics.Counter) {
		if !strings.HasPrefix(name, "cf.cmd.") {
			return
		}
		seen[name] = true
		if c.Value() == 0 {
			zero = append(zero, name)
		}
	}})
	if len(zero) > 0 {
		t.Fatalf("registered but never incremented: %v", zero)
	}

	// And every command kind the structures resolve must be registered —
	// a charge through an unresolved handle would register lazily, so
	// this pins the full expected name set.
	want := []string{
		"lock.connect", "lock.obtain", "lock.force", "lock.release",
		"lock.delrecord", "lock.records",
		"cache.connect", "cache.read", "cache.write", "cache.unregister",
		"cache.castoutbegin", "cache.castoutend",
		"list.connect", "list.setlock", "list.releaselock", "list.write",
		"list.read", "list.readfirst", "list.pop", "list.delete",
		"list.move", "list.adjunct", "list.monitor",
	}
	for _, kind := range want {
		if !seen["cf.cmd."+kind] {
			t.Errorf("command kind %q not registered", kind)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("registered %d cf.cmd.* counters, want %d: %v", len(seen), len(want), seen)
	}
}
