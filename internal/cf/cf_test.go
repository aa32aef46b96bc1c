package cf

import (
	"context"
	"errors"
	"testing"
	"time"

	"sysplex/internal/vclock"
)

func newCF(t *testing.T) *Facility {
	t.Helper()
	return New("CF01", vclock.Real())
}

func TestAllocateLookupDeallocate(t *testing.T) {
	f := newCF(t)
	if _, err := f.AllocateLockStructure("IRLM1", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateCacheStructure("GBP0", 128); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateListStructure("ISTGR", 4, 1, 100); err != nil {
		t.Fatal(err)
	}
	names := f.StructureNames()
	if len(names) != 3 || names[0] != "GBP0" || names[1] != "IRLM1" || names[2] != "ISTGR" {
		t.Fatalf("names = %v", names)
	}
	if _, err := f.LockStructure("IRLM1"); err != nil {
		t.Fatal(err)
	}
	// Model mismatch: a cache structure cannot be used as a lock structure.
	if _, err := f.LockStructure("GBP0"); !errors.Is(err, ErrWrongModel) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.CacheStructure("MISSING"); !errors.Is(err, ErrNoStructure) {
		t.Fatalf("err = %v", err)
	}
	if err := f.Deallocate("GBP0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CacheStructure("GBP0"); !errors.Is(err, ErrNoStructure) {
		t.Fatalf("after dealloc: %v", err)
	}
	if err := f.Deallocate("GBP0"); !errors.Is(err, ErrNoStructure) {
		t.Fatalf("double dealloc: %v", err)
	}
}

func TestDuplicateAllocationRejected(t *testing.T) {
	f := newCF(t)
	f.AllocateLockStructure("S", 8)
	if _, err := f.AllocateCacheStructure("S", 8); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadShapesRejected(t *testing.T) {
	f := newCF(t)
	if _, err := f.AllocateLockStructure("L", 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.AllocateCacheStructure("C", 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.AllocateListStructure("X", 0, 0, 1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacilityFailureStopsCommands(t *testing.T) {
	f := newCF(t)
	ls, _ := f.AllocateLockStructure("L", 8)
	ls.Connect(context.Background(), "SYS1")
	f.Fail()
	if !f.Failed() {
		t.Fatal("Failed() = false")
	}
	if _, err := ls.Obtain(context.Background(), 0, "SYS1", Share); !errors.Is(err, ErrCFDown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.LockStructure("L"); !errors.Is(err, ErrCFDown) {
		t.Fatalf("lookup err = %v", err)
	}
	if _, err := f.AllocateLockStructure("L2", 8); !errors.Is(err, ErrCFDown) {
		t.Fatalf("alloc err = %v", err)
	}
}

func TestSyncLatencyInjection(t *testing.T) {
	fc := vclock.NewFake(time.Unix(0, 0))
	f := New("CF01", fc)
	f.SetSyncLatency(20 * time.Microsecond)
	ls, _ := f.AllocateLockStructure("L", 8)
	done := make(chan error, 1)
	go func() {
		if err := ls.Connect(context.Background(), "SYS1"); err != nil {
			done <- err
			return
		}
		_, err := ls.Obtain(context.Background(), 0, "SYS1", Share)
		done <- err
	}()
	// Two commands (connect + obtain) at 20µs each.
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			t.Fatalf("completed before latency elapsed (err=%v)", err)
		case <-time.After(5 * time.Millisecond):
		}
		fc.Advance(20 * time.Microsecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never completed")
	}
}

func TestCommandMetrics(t *testing.T) {
	f := newCF(t)
	ls, _ := f.AllocateLockStructure("L", 8)
	ls.Connect(context.Background(), "SYS1")
	ls.Obtain(context.Background(), 0, "SYS1", Share)
	ls.Release(context.Background(), 0, "SYS1", Share)
	if n := f.Metrics().Counter("cf.cmd.lock.obtain").Value(); n != 1 {
		t.Fatalf("obtain count = %d", n)
	}
	if n := f.Metrics().Histogram("cf.cmd.latency").Count(); n < 2 {
		t.Fatalf("latency observations = %d", n)
	}
}

func TestModelString(t *testing.T) {
	if LockModel.String() != "lock" || CacheModel.String() != "cache" || ListModel.String() != "list" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model empty")
	}
	if Share.String() != "share" || Exclusive.String() != "exclusive" || LockMode(9).String() == "" {
		t.Fatal("mode names wrong")
	}
}

func TestStorageAccounting(t *testing.T) {
	// 1 MiB facility: a 4096-entry lock structure (256 KiB) fits, a
	// large cache does not.
	f := NewWithStorage("CF01", vclock.Real(), 1<<20)
	if _, err := f.AllocateLockStructure("L", 4096); err != nil {
		t.Fatal(err)
	}
	total, used := f.Storage()
	if total != 1<<20 || used != 4096*64 {
		t.Fatalf("storage = %d/%d", used, total)
	}
	if _, err := f.AllocateCacheStructure("BIG", 4096); !errors.Is(err, ErrStorage) {
		t.Fatalf("err = %v, want storage exhaustion", err)
	}
	// A small cache fits.
	if _, err := f.AllocateCacheStructure("SMALL", 64); err != nil {
		t.Fatal(err)
	}
	// Deallocation returns storage ("dynamically partitioned").
	if err := f.Deallocate("L"); err != nil {
		t.Fatal(err)
	}
	_, used = f.Storage()
	if used != 64*4352 {
		t.Fatalf("used after dealloc = %d", used)
	}
	if _, err := f.AllocateListStructure("NOWFITS", 4, 1, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestUnconstrainedStorage(t *testing.T) {
	f := New("CF01", vclock.Real())
	if _, err := f.AllocateCacheStructure("HUGE", 1<<20); err != nil {
		t.Fatal(err)
	}
	total, used := f.Storage()
	if total != 0 || used == 0 {
		t.Fatalf("storage = %d/%d", used, total)
	}
}
