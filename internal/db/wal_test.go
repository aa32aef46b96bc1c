package db

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"sysplex/internal/dasd"
)

// The write-ahead log is one log stream; these tests pin what the
// engine relies on from appendLog and streamLogRecords.

func TestWALAppendAndRead(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	err := e1.appendLog(context.Background(),
		&LogRecord{Tx: "T1", Kind: recUpdate, Images: []Image{{Table: "ACCT", Key: "k1", After: []byte("v1")}}},
		&LogRecord{Tx: "T1", Kind: recCommit, Images: []Image{{Table: "ACCT", Key: "k2", After: []byte("v2")}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Any peer reads the failed system's records off the shared stream
	// in the order they were appended.
	recs, err := e2.streamLogRecords(context.Background(), "SYS1")
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs = %+v err=%v", recs, err)
	}
	if recs[0].Kind != recUpdate || recs[0].Images[0].Key != "k1" || recs[1].Kind != recCommit || recs[1].Images[0].Key != "k2" {
		t.Fatalf("recs = %+v", recs)
	}
	for _, r := range recs {
		if r.Sys != "SYS1" {
			t.Fatalf("record not stamped with its writer: %+v", r)
		}
	}
	// Records of other systems are not SYS1's log.
	if recs, err := e2.streamLogRecords(context.Background(), "SYS2"); err != nil || len(recs) != 0 {
		t.Fatalf("SYS2 recs = %+v err=%v", recs, err)
	}
}

func TestWALReopenContinues(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	e := fx.engines["SYS1"]
	if err := e.appendLog(context.Background(), &LogRecord{Tx: "T1", Kind: recCommit}); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(context.Background(), Config{
		Name: "DBP1", System: "SYS1", Farm: fx.farm, Volume: "DBVOL",
		Facility: fx.fac, Locks: fx.locks["SYS1"], Logger: fx.loggers("SYS1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.appendLog(context.Background(), &LogRecord{Tx: "T2", Kind: recCommit}); err != nil {
		t.Fatal(err)
	}
	recs := syncRecords(t, e2)
	if len(recs) != 2 || recs[0].Tx != "T1" || recs[1].Tx != "T2" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestWALOversizeRecordRejected(t *testing.T) {
	fx := newDBFixture(t, "SYS1")
	err := fx.engines["SYS1"].appendLog(context.Background(),
		&LogRecord{Tx: "T", Kind: recCommit, Images: []Image{{Table: "ACCT", After: make([]byte, dasd.BlockSize)}}})
	if err == nil {
		t.Fatal("oversize record accepted")
	}
}

// maxSizeRecords returns n keys on distinct pages of ACCT (16 pages),
// each with a value filling the largest record Put accepts.
func maxSizeRecords(n int) map[string][]byte {
	out := map[string][]byte{}
	used := map[int]bool{}
	for i := 0; len(out) < n; i++ {
		key := fmt.Sprintf("big-%d", i)
		if p := pageOf(key, 16); !used[p] {
			used[p] = true
			out[key] = bytes.Repeat([]byte{byte('a' + len(out))}, dasd.BlockSize/2-len(key))
		}
	}
	return out
}

// TestOverwriteMaxSizeRecord: replacing a record of the largest size
// Put accepts with another of that size commits; the log record carries
// only the after image.
func TestOverwriteMaxSizeRecord(t *testing.T) {
	ctx := context.Background()
	fx := newDBFixture(t, "SYS1", "SYS2")
	key := "big"
	for _, fill := range []byte{'x', 'y'} {
		tx := fx.engines["SYS1"].Begin(ctx)
		if err := tx.Put("ACCT", key, bytes.Repeat([]byte{fill}, dasd.BlockSize/2-len(key))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit of %c: %v", fill, err)
		}
	}
	tx := fx.engines["SYS2"].Begin(ctx)
	v, ok, err := tx.Get("ACCT", key)
	if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{'y'}, dasd.BlockSize/2-len(key))) {
		t.Fatalf("read back %d bytes ok=%v err=%v", len(v), ok, err)
	}
	tx.Commit()
}

// TestSpilledCommitRedone: three max-size images do not fit one log
// record, so two spill into UPDATE records ahead of the COMMIT; peer
// redo (SYS1 dies after the log force) and cold redo (after a power
// cut) both apply all three.
func TestSpilledCommitRedone(t *testing.T) {
	ctx := context.Background()
	recs := maxSizeRecords(3)
	put := func(t *testing.T, e *Engine) *Tx {
		tx := e.Begin(ctx)
		for k, v := range recs {
			if err := tx.Put("ACCT", k, v); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	check := func(t *testing.T, e *Engine) {
		tx := e.Begin(ctx)
		defer tx.Commit()
		for k, want := range recs {
			if v, ok, err := tx.Get("ACCT", k); err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: %d bytes ok=%v err=%v", k, len(v), ok, err)
			}
		}
	}

	t.Run("peer", func(t *testing.T) {
		fx := newDBFixture(t, "SYS1", "SYS2")
		tx := put(t, fx.engines["SYS1"])
		log := tx.commitRecords()
		if len(log) != 3 || log[0].Kind != recUpdate || log[1].Kind != recUpdate || log[2].Kind != recCommit {
			t.Fatalf("commit records = %+v, want UPDATE, UPDATE, COMMIT", log)
		}
		if err := fx.engines["SYS1"].appendLog(ctx, log...); err != nil {
			t.Fatal(err)
		}
		fx.plex.PartitionNow("SYS1")
		fx.fac.FailConnector("SYS1")
		rep, err := fx.engines["SYS2"].RecoverPeer(ctx, "SYS1")
		if err != nil || rep.RedoApplied != 3 || rep.LocksFreed != 3 {
			t.Fatalf("report = %+v err=%v, want 3 redone and 3 locks freed", rep, err)
		}
		check(t, fx.engines["SYS2"])
	})

	t.Run("cold", func(t *testing.T) {
		dir := t.TempDir()
		fx := newDurableFixture(t, dir, "SYS1")
		if err := put(t, fx.engines["SYS1"]).Commit(); err != nil {
			t.Fatal(err)
		}
		dasd.PowerCutFarm(fx.farm)
		e := newDurableFixture(t, dir, "SYS1").engines["SYS1"]
		rep, err := e.RecoverCold(ctx)
		if err != nil || rep.Transactions != 1 || rep.RedoApplied != 3 {
			t.Fatalf("report = %+v err=%v, want 1 transaction / 3 redos", rep, err)
		}
		check(t, e)
	})
}
