package db

import (
	"context"
	"testing"

	"sysplex/internal/dasd"
)

// The write-ahead log is a set of log streams; these tests pin what the
// engine relies on from appendLog and streamLogRecords.

func TestWALAppendAndRead(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	err := e1.appendLog(context.Background(),
		&LogRecord{Tx: "T1", Kind: recUpdate, Table: "ACCT", Key: "k1", After: []byte("v1")},
		&LogRecord{Tx: "T1", Kind: recUpdate, Table: "ACCT", Key: "k2", After: []byte("v2")},
		&LogRecord{Tx: "T1", Kind: recCommit},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Any peer reads the failed system's records off the shared
	// streams: COMMIT from the sync stream, then the table stream's
	// updates in the order they were appended.
	recs, err := e2.streamLogRecords(context.Background(), "SYS1")
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs = %+v err=%v", recs, err)
	}
	if recs[0].Kind != recCommit || recs[1].Key != "k1" || recs[2].Key != "k2" {
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
		&LogRecord{Tx: "T", Kind: recUpdate, Table: "ACCT", After: make([]byte, dasd.BlockSize)})
	if err == nil {
		t.Fatal("oversize record accepted")
	}
}
