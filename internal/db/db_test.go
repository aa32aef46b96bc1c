package db

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sysplex/internal/cds"
	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
	"sysplex/internal/logr/logrtest"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

type dbFixture struct {
	farm    *dasd.Farm
	fac     *cf.Facility
	plex    *xcf.Sysplex
	loggers func(sys string) *logr.Manager
	locks   map[string]*lockmgr.Manager
	engines map[string]*Engine
}

func newDBFixture(t *testing.T, systems ...string) *dbFixture {
	t.Helper()
	farm := dasd.NewFarm(vclock.Real())
	if _, err := farm.AddVolume("DBVOL", 8192, 2); err != nil {
		t.Fatal(err)
	}
	pri, _ := farm.Allocate("DBVOL", "XCF.CDS", 128)
	store, _ := cds.New("S", vclock.Real(), pri, nil, cds.Options{})
	plex := xcf.NewSysplex("PLEX1", vclock.Real(), store, farm, xcf.Options{})
	fac := cf.New("CF01", vclock.Real())
	ls, err := fac.AllocateLockStructure("IRLM", 1024)
	if err != nil {
		t.Fatal(err)
	}
	fx := &dbFixture{farm: farm, fac: fac, plex: plex, loggers: logrtest.Loggers(t, fac, farm, "DBVOL"),
		locks: map[string]*lockmgr.Manager{}, engines: map[string]*Engine{}}
	for _, s := range systems {
		sys, err := plex.Join(s)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := lockmgr.New(context.Background(), sys, ls, vclock.Real())
		if err != nil {
			t.Fatal(err)
		}
		fx.locks[s] = lm
		eng, err := Open(context.Background(), Config{
			Name: "DBP1", System: s, Farm: farm, Volume: "DBVOL",
			Facility: fac, Locks: lm, LockTimeout: 3 * time.Second,
			PoolFrames: 64, Logger: fx.loggers(s),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenTable(context.Background(), "ACCT", 16); err != nil {
			t.Fatal(err)
		}
		fx.engines[s] = eng
	}
	return fx
}

func TestPutGetCommit(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	if err := tx.Put("ACCT", "alice", []byte("100")); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes before commit.
	v, ok, err := tx.Get("ACCT", "alice")
	if err != nil || !ok || string(v) != "100" {
		t.Fatalf("v=%q ok=%v err=%v", v, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin(context.Background())
	v, ok, err = tx2.Get("ACCT", "alice")
	if err != nil || !ok || string(v) != "100" {
		t.Fatalf("after commit: v=%q ok=%v err=%v", v, ok, err)
	}
	tx2.Commit()
	st := e.Stats()
	if st.Commits != 2 || st.Begins != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortDiscards(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	tx.Put("ACCT", "bob", []byte("50"))
	tx.Abort()
	tx2 := e.Begin(context.Background())
	_, ok, err := tx2.Get("ACCT", "bob")
	if err != nil || ok {
		t.Fatalf("aborted write visible: ok=%v err=%v", ok, err)
	}
	tx2.Commit()
	// Abort released the locks.
	tx3 := e.Begin(context.Background())
	if err := tx3.Put("ACCT", "bob", []byte("1")); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
}

func TestDeleteRecord(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	tx.Put("ACCT", "carol", []byte("1"))
	tx.Commit()
	tx2 := e.Begin(context.Background())
	if err := tx2.Delete("ACCT", "carol"); err != nil {
		t.Fatal(err)
	}
	// Own delete visible.
	if _, ok, _ := tx2.Get("ACCT", "carol"); ok {
		t.Fatal("own delete invisible")
	}
	tx2.Commit()
	tx3 := e.Begin(context.Background())
	if _, ok, _ := tx3.Get("ACCT", "carol"); ok {
		t.Fatal("delete not committed")
	}
	tx3.Commit()
}

func TestCrossSystemVisibilityAndCoherency(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	// Warm SYS2's local cache with the page.
	tx := e2.Begin(context.Background())
	tx.Get("ACCT", "dave")
	tx.Commit()
	// SYS1 commits an update.
	tx1 := e1.Begin(context.Background())
	tx1.Put("ACCT", "dave", []byte("v1"))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// SYS2 sees it immediately (cross-invalidate + refresh).
	tx2 := e2.Begin(context.Background())
	v, ok, err := tx2.Get("ACCT", "dave")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("v=%q ok=%v err=%v", v, ok, err)
	}
	tx2.Commit()
}

func TestWriteConflictBlocksAcrossSystems(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	tx1 := e1.Begin(context.Background())
	if err := tx1.Put("ACCT", "erin", []byte("a")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2 := e2.Begin(context.Background())
		if err := tx2.Put("ACCT", "erin", []byte("b")); err != nil {
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("conflicting write did not block: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Last committed wins.
	tx := e1.Begin(context.Background())
	v, _, _ := tx.Get("ACCT", "erin")
	tx.Commit()
	if string(v) != "b" {
		t.Fatalf("v = %q", v)
	}
}

func TestConcurrentIncrementsAcrossSystems(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2", "SYS3")
	// Seed.
	tx := fx.engines["SYS1"].Begin(context.Background())
	tx.Put("ACCT", "counter", []byte("0"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const perSys = 15
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, e := range fx.engines {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSys; i++ {
				for {
					tx := e.Begin(context.Background())
					v, _, err := tx.Get("ACCT", "counter")
					if err != nil {
						tx.Abort()
						if errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) {
							continue
						}
						errs <- err
						return
					}
					var n int
					fmt.Sscanf(string(v), "%d", &n)
					if err := tx.Put("ACCT", "counter", []byte(fmt.Sprintf("%d", n+1))); err != nil {
						tx.Abort()
						if errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) {
							continue
						}
						errs <- err
						return
					}
					if err := tx.Commit(); err != nil {
						errs <- err
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tx = fx.engines["SYS2"].Begin(context.Background())
	v, _, _ := tx.Get("ACCT", "counter")
	tx.Commit()
	want := fmt.Sprintf("%d", 3*perSys)
	if string(v) != want {
		t.Fatalf("counter = %s, want %s (lost update!)", v, want)
	}
}

func TestScanPages(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	for i := 0; i < 40; i++ {
		if err := tx.Put("ACCT", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Full scan sees all 40; split scans see a partition of them.
	count := 0
	if err := e.ScanPages(context.Background(), "Q1", "ACCT", 0, 16, func(k string, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 40 {
		t.Fatalf("full scan = %d", count)
	}
	lo, hi := 0, 0
	if err := e.ScanPages(context.Background(), "Q2", "ACCT", 0, 8, func(k string, v []byte) bool { lo++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScanPages(context.Background(), "Q3", "ACCT", 8, 16, func(k string, v []byte) bool { hi++; return true }); err != nil {
		t.Fatal(err)
	}
	if lo+hi != 40 || lo == 0 || hi == 0 {
		t.Fatalf("split scans = %d + %d", lo, hi)
	}
	// Early stop.
	n := 0
	e.ScanPages(context.Background(), "Q4", "ACCT", 0, 16, func(k string, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop n = %d", n)
	}
}

func TestCastoutPersistsToDASD(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1 := fx.engines["SYS1"]
	tx := e1.Begin(context.Background())
	tx.Put("ACCT", "frank", []byte("cast"))
	tx.Commit()
	n, err := e1.CastoutOnce(context.Background(), 0)
	if err != nil || n == 0 {
		t.Fatalf("castout n=%d err=%v", n, err)
	}
	// Read the page straight from DASD, bypassing caches.
	ds, err := fx.farm.Dataset("TS.DBP1.ACCT")
	if err != nil {
		t.Fatal(err)
	}
	page := pageOf("frank", 16)
	raw, err := ds.Read("SYS2", page)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decodePage(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := img.get("frank")
	if !ok || !bytes.Equal(v, []byte("cast")) {
		t.Fatalf("on DASD: %q ok=%v", v, ok)
	}
}

func TestPeerRecoveryRedoesCommittedChanges(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]

	// A fully committed transaction on SYS1 (applied everywhere).
	tx := e1.Begin(context.Background())
	tx.Put("ACCT", "gina", []byte("old"))
	tx.Commit()

	// Simulate SYS1 dying mid-commit: COMMIT record logged but pages
	// never applied. We write the log records directly, then kill SYS1.
	err := e1.appendLog(context.Background(),
		&LogRecord{Tx: "SYS1-999999", Kind: recUpdate, Table: "ACCT", Key: "gina", Before: []byte("old"), After: []byte("new")},
		&LogRecord{Tx: "SYS1-999999", Kind: recUpdate, Table: "ACCT", Key: "hank", After: []byte("born")},
		&LogRecord{Tx: "SYS1-999999", Kind: recCommit},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The dying system also held exclusive locks, retained at the CF.
	ls, _ := fx.fac.LockStructure("IRLM")
	ls.SetRecord(context.Background(), "SYS1", e1.recordResource("ACCT", "gina"), cf.Exclusive)
	ls.SetRecord(context.Background(), "SYS1", e1.recordResource("ACCT", "hank"), cf.Exclusive)

	fx.plex.PartitionNow("SYS1")
	fx.fac.FailConnector("SYS1")

	// Before recovery, the records are protected by retained locks.
	txB := e2.Begin(context.Background())
	_, _, err = txB.Get("ACCT", "gina")
	if !errors.Is(err, lockmgr.ErrRetained) {
		t.Fatalf("err = %v, want retained", err)
	}
	txB.Abort()

	// SYS2 performs peer recovery.
	rep, err := e2.RecoverPeer(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 2 || rep.LocksFreed != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// The committed-but-unapplied changes are now visible and unlocked.
	tx2 := e2.Begin(context.Background())
	v, ok, err := tx2.Get("ACCT", "gina")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("gina = %q ok=%v err=%v", v, ok, err)
	}
	v, ok, _ = tx2.Get("ACCT", "hank")
	if !ok || string(v) != "born" {
		t.Fatalf("hank = %q ok=%v", v, ok)
	}
	tx2.Commit()
}

func TestRecoverySkipsUncommittedAndEnded(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	// Uncommitted (in-flight) transaction: update logged, no COMMIT.
	e1.appendLog(context.Background(), &LogRecord{Tx: "SYS1-777777", Kind: recUpdate, Table: "ACCT", Key: "ivy", After: []byte("ghost")})
	// Fully applied transaction: COMMIT + END.
	e1.appendLog(context.Background(),
		&LogRecord{Tx: "SYS1-888888", Kind: recUpdate, Table: "ACCT", Key: "judy", After: []byte("stale")},
		&LogRecord{Tx: "SYS1-888888", Kind: recCommit},
		&LogRecord{Tx: "SYS1-888888", Kind: recEnd},
	)
	fx.plex.PartitionNow("SYS1")
	fx.fac.FailConnector("SYS1")
	rep, err := e2.RecoverPeer(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 0 {
		t.Fatalf("report = %+v, nothing should be redone", rep)
	}
	tx := e2.Begin(context.Background())
	if _, ok, _ := tx.Get("ACCT", "ivy"); ok {
		t.Fatal("uncommitted change redone")
	}
	if _, ok, _ := tx.Get("ACCT", "judy"); ok {
		t.Fatal("ended transaction redone")
	}
	tx.Commit()
}

func TestTxDoneErrors(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Put("ACCT", "k", nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := tx.Get("ACCT", "k"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Delete("ACCT", "k"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	tx.Abort() // no-op after done
}

func TestUnknownTable(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	tx := fx.engines["SYS1"].Begin(context.Background())
	if _, _, err := tx.Get("NOPE", "k"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	tx.Abort()
	if err := fx.engines["SYS1"].ScanPages(context.Background(), "Q", "NOPE", 0, 1, nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenTableValidation(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	if err := e.OpenTable(context.Background(), "BAD", 0); err == nil {
		t.Fatal("zero pages accepted")
	}
	// Re-open with same page count: idempotent.
	if err := e.OpenTable(context.Background(), "ACCT", 16); err != nil {
		t.Fatal(err)
	}
	// Page count mismatch with existing dataset.
	if err := e.OpenTable(context.Background(), "T2", 8); err != nil {
		t.Fatal(err)
	}
	e2 := fx.engines["SYS1"]
	_ = e2
	fx2 := newDBFixture(t, "SYSA") // fresh farm; no conflict
	_ = fx2
	if got, err := e.TablePages("ACCT"); err != nil || got != 16 {
		t.Fatalf("pages = %d err=%v", got, err)
	}
	if _, err := e.TablePages("NOPE"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestValueTooBig(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	tx := fx.engines["SYS1"].Begin(context.Background())
	if err := tx.Put("ACCT", "big", make([]byte, dasd.BlockSize)); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("err = %v", err)
	}
	tx.Abort()
}

func TestLogSurvivesEngineRestart(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	tx.Put("ACCT", "kate", []byte("v"))
	tx.Commit()
	// Re-open the engine over the same streams and datasets (system
	// re-IPL, with a fresh logger instance).
	lm := fx.locks["SYS1"]
	e2, err := Open(context.Background(), Config{
		Name: "DBP1", System: "SYS1", Farm: fx.farm, Volume: "DBVOL",
		Facility: fx.fac, Locks: lm, PoolFrames: 64, Logger: fx.loggers("SYS1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.OpenTable(context.Background(), "ACCT", 16); err != nil {
		t.Fatal(err)
	}
	tx2 := e2.Begin(context.Background())
	v, ok, err := tx2.Get("ACCT", "kate")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("v=%q ok=%v err=%v", v, ok, err)
	}
	if err := tx2.Put("ACCT", "kate", []byte("w")); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	// The new instance's records must follow the old ones on the
	// streams, not replace them: COMMIT+END of each transaction, in
	// order.
	var txs []string
	for _, r := range syncRecords(t, e2) {
		txs = append(txs, r.Tx+"/"+r.Kind)
	}
	want := []string{tx.ID() + "/commit", tx.ID() + "/end", tx2.ID() + "/commit", tx2.ID() + "/end"}
	if fmt.Sprint(txs) != fmt.Sprint(want) {
		t.Fatalf("sync stream after restart = %v, want %v", txs, want)
	}
}

// syncRecords reads the engine's COMMIT/END stream in log order.
func syncRecords(t *testing.T, e *Engine) []LogRecord {
	t.Helper()
	cur, err := e.sync.Browse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []LogRecord
	for {
		srec, ok := cur.Next()
		if !ok {
			return out
		}
		var r LogRecord
		if err := json.Unmarshal(srec.Data, &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
}

// TestOpenRequiresLogger: the log streams are the only write-ahead
// log, so a config without a logger is incomplete.
func TestOpenRequiresLogger(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	_, err := Open(context.Background(), Config{
		Name: "DBP1", System: "SYS9", Farm: fx.farm, Volume: "DBVOL",
		Facility: fx.fac, Locks: fx.locks["SYS1"],
	})
	if err == nil {
		t.Fatal("Open without a Logger succeeded")
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	img := newPageImage()
	img.set("a", []byte("1"))
	img.set("bb", []byte("22"))
	img.set("", []byte{})
	raw, err := img.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodePage(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "bb", ""} {
		v1, ok1 := img.get(k)
		v2, ok2 := back.get(k)
		if ok1 != ok2 || !bytes.Equal(v1, v2) {
			t.Fatalf("mismatch for %q", k)
		}
	}
	img.delete("a")
	if _, ok := img.get("a"); ok {
		t.Fatal("delete failed")
	}
}

func TestPageFullRejectedAtPut(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	// One-page table: everything collides onto page 0.
	if err := e.OpenTable(context.Background(), "TINY", 1); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 700)
	var lastErr error
	inserted := 0
	for i := 0; i < 20; i++ {
		tx := e.Begin(context.Background())
		err := tx.Put("TINY", fmt.Sprintf("rec%02d", i), val)
		if err != nil {
			lastErr = err
			tx.Abort()
			break
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit after accepted put failed: %v", err)
		}
		inserted++
	}
	if !errors.Is(lastErr, ErrPageFull) {
		t.Fatalf("err = %v, want page full at Put time", lastErr)
	}
	if inserted == 0 || inserted >= 20 {
		t.Fatalf("inserted = %d", inserted)
	}
	// Earlier records are intact and further work proceeds normally.
	tx := e.Begin(context.Background())
	v, ok, err := tx.Get("TINY", "rec00")
	if err != nil || !ok || len(v) != 700 {
		t.Fatalf("rec00: ok=%v err=%v", ok, err)
	}
	if err := tx.Delete("TINY", "rec00"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Deleting freed room for one more record.
	tx2 := e.Begin(context.Background())
	if err := tx2.Put("TINY", "fresh", val); err != nil {
		t.Fatalf("put after delete: %v", err)
	}
	tx2.Commit()
}

func TestMultiTableTransaction(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	for _, e := range []*Engine{e1, e2} {
		if err := e.OpenTable(context.Background(), "AUDIT", 8); err != nil {
			t.Fatal(err)
		}
	}
	// A transfer touching two tables commits atomically.
	tx := e1.Begin(context.Background())
	tx.Put("ACCT", "src", []byte("90"))
	tx.Put("AUDIT", "entry1", []byte("withdrew 10 from src"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e2.Begin(context.Background())
	v1, ok1, _ := tx2.Get("ACCT", "src")
	v2, ok2, _ := tx2.Get("AUDIT", "entry1")
	tx2.Commit()
	if !ok1 || !ok2 || string(v1) != "90" || len(v2) == 0 {
		t.Fatalf("multi-table commit not visible: %q %q", v1, v2)
	}
	// An aborted multi-table transaction leaves no trace in either.
	tx3 := e1.Begin(context.Background())
	tx3.Put("ACCT", "ghost", []byte("1"))
	tx3.Put("AUDIT", "ghost", []byte("1"))
	tx3.Abort()
	tx4 := e2.Begin(context.Background())
	if _, ok, _ := tx4.Get("ACCT", "ghost"); ok {
		t.Fatal("aborted ACCT change visible")
	}
	if _, ok, _ := tx4.Get("AUDIT", "ghost"); ok {
		t.Fatal("aborted AUDIT change visible")
	}
	tx4.Commit()
}

func TestRangeScanOrderedAndBounded(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	tx := e.Begin(context.Background())
	for _, k := range []string{"delta", "alpha", "echo", "bravo", "charlie"} {
		if err := tx.Put("ACCT", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := e.RangeScan(context.Background(), "Q", "ACCT", "b", "e", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"bravo", "charlie", "delta"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Open bounds: everything, ordered.
	got = nil
	e.RangeScan(context.Background(), "Q", "ACCT", "", "", func(k string, v []byte) bool { got = append(got, k); return true })
	if len(got) != 5 || got[0] != "alpha" || got[4] != "echo" {
		t.Fatalf("open scan = %v", got)
	}
	// Early stop.
	n := 0
	e.RangeScan(context.Background(), "Q", "ACCT", "", "", func(k string, v []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop n = %d", n)
	}
	if err := e.RangeScan(context.Background(), "Q", "NOPE", "", "", nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}
