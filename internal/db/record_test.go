package db

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sysplex/internal/wire"
)

// TestRedoRejectsOldImage: a log record in the JSON layout earlier
// builds wrote fails both redo passes as a corrupt log record, with the
// layout error wrapped.
func TestRedoRejectsOldImage(t *testing.T) {
	ctx := context.Background()
	fx := newDBFixture(t, "SYS1", "SYS2")
	old := []byte(`{"tx":"SYS1-000001","sys":"SYS1","kind":"commit"}`)
	if _, err := fx.engines["SYS1"].sync.Write(ctx, old); err != nil {
		t.Fatal(err)
	}
	_, cold := fx.engines["SYS2"].RecoverCold(ctx)
	_, peer := fx.engines["SYS2"].RecoverPeer(ctx, "SYS1")
	for name, err := range map[string]error{"cold": cold, "peer": peer} {
		if !errors.Is(err, wire.ErrLayout) || !strings.Contains(err.Error(), "corrupt log record") {
			t.Fatalf("%s redo over a JSON record: %v, want a corrupt log record wrapping wire.ErrLayout", name, err)
		}
	}
}

// FuzzLogRecord round-trips a log record and feeds arbitrary bytes to its
// decoder, which must fail by name and never panic.
func FuzzLogRecord(f *testing.F) {
	upd := LogRecord{Tx: "SYS1-000007", Sys: "SYS1", Kind: recUpdate, Table: "ACCT", Key: "k", Before: []byte("1"), After: []byte("2")}
	f.Add("SYS2-000001", "SYS2", recCommit, "", "", []byte(nil), []byte{}, true, upd.encode())
	f.Add("", "", byte(0), "T", "K", []byte{0}, []byte{0, 0}, false, []byte(`{"tx":"T1","kind":"end"}`))
	f.Fuzz(func(t *testing.T, tx, sys string, kind byte, table, key string, before, after []byte, del bool, raw []byte) {
		want := LogRecord{Tx: tx, Sys: sys, Kind: kind, Table: table, Key: key, Before: before, After: after, Delete: del}
		got, err := decodeLogRecord(want.encode())
		if len(want.Before) == 0 {
			want.Before = nil
		}
		if len(want.After) == 0 {
			want.After = nil
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
		if _, err := decodeLogRecord(raw); err != nil && !errors.Is(err, wire.ErrLayout) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("decode error %v is neither ErrLayout nor ErrMalformed", err)
		}
	})
}
