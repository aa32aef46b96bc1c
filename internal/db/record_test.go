package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sysplex/internal/dasd"
	"sysplex/internal/wire"
)

// layout1Commit is a COMMIT record as layout 1 wrote it: one change per
// record, with a before image.
func layout1Commit() []byte {
	e := wire.Record(1, 0)
	e.Str("SYS1-000001")
	e.Str("SYS1")
	e.U8(recCommit)
	e.Str("")
	e.Str("")
	e.Bytes(nil)
	e.Bytes(nil)
	e.Bool(false)
	return e.Buf
}

// TestRedoRejectsOldImage: a log record in an earlier layout — the JSON
// of earlier builds, or layout 1 — fails both redo passes as a corrupt
// log record, with the layout error wrapped.
func TestRedoRejectsOldImage(t *testing.T) {
	ctx := context.Background()
	for name, old := range map[string][]byte{
		"json":     []byte(`{"tx":"SYS1-000001","sys":"SYS1","kind":"commit"}`),
		"layout 1": layout1Commit(),
	} {
		fx := newDBFixture(t, "SYS1", "SYS2")
		if _, err := fx.engines["SYS1"].sync.Write(ctx, old); err != nil {
			t.Fatal(err)
		}
		_, cold := fx.engines["SYS2"].RecoverCold(ctx)
		_, peer := fx.engines["SYS2"].RecoverPeer(ctx, "SYS1")
		for pass, err := range map[string]error{"cold": cold, "peer": peer} {
			if !errors.Is(err, wire.ErrLayout) || !strings.Contains(err.Error(), "corrupt log record") {
				t.Fatalf("%s redo over a %s record: %v, want a corrupt log record wrapping wire.ErrLayout", pass, name, err)
			}
		}
	}
}

// FuzzLogRecord round-trips a COMMIT (or any kind) with n images, holds
// the encoded length to the size commitRecords packs by, and feeds
// arbitrary bytes to the decoder, which must fail by name and never
// panic.
func FuzzLogRecord(f *testing.F) {
	upd := LogRecord{Tx: "SYS1-000007", Sys: "SYS1", Kind: recUpdate, Images: []Image{{Table: "ACCT", Key: "k", After: []byte("2")}}}
	f.Add("SYS2-000001", "SYS2", recCommit, uint8(3), "ACCT", "k", []byte("v"), false, upd.encode())
	f.Add("", "", byte(0), uint8(0), "T", "K", []byte{0, 0}, true, []byte(`{"tx":"T1","kind":"end"}`))
	f.Add("T", "S", recEnd, uint8(1), "", "", []byte(nil), false, layout1Commit())
	f.Fuzz(func(t *testing.T, tx, sys string, kind byte, n uint8, table, key string, after []byte, del bool, raw []byte) {
		want := LogRecord{Tx: tx, Sys: sys, Kind: kind}
		bound := want.size()
		for i := 0; i < int(n%8); i++ {
			im := Image{Table: table, Key: key + strconv.Itoa(i), After: after, Delete: del != (i%2 == 1)}
			bound += im.size()
			want.Images = append(want.Images, im)
		}
		img := want.encode()
		if len(img) > bound {
			t.Fatalf("encoded %d bytes, size bound %d", len(img), bound)
		}
		got, err := decodeLogRecord(img)
		for i := range want.Images {
			if len(after) == 0 {
				want.Images[i].After = nil
			}
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
		if _, err := decodeLogRecord(raw); err != nil && !errors.Is(err, wire.ErrLayout) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("decode error %v is neither ErrLayout nor ErrMalformed", err)
		}
	})
}

// FuzzPage: an image decodePage accepts never panics when read in place
// (get, each) or rebuilt (set, delete); set and delete produce valid
// images of the length grows predicts and leave the image they were
// given untouched.
func FuzzPage(f *testing.F) {
	img := newPageImage()
	img.set("a", []byte("1"))
	img.set("bb", []byte("22"))
	f.Add(img.raw, "b", []byte("v"))
	f.Add([]byte{0, 1, 0, 0, 0, 0}, "", []byte(nil))
	f.Add(make([]byte, dasd.BlockSize), "k", []byte("x"))
	f.Fuzz(func(t *testing.T, raw []byte, key string, val []byte) {
		// A page is one block; Put bounds a record to half of one.
		if len(raw) > dasd.BlockSize || len(key)+len(val) > dasd.BlockSize/2 {
			return
		}
		p, err := decodePage(raw)
		if err != nil {
			return
		}
		orig := append([]byte(nil), p.raw...)
		n, prev := 0, ""
		p.each(func(k string, v []byte) bool {
			if n > 0 && k <= prev {
				t.Fatalf("walk out of key order: %q after %q", k, prev)
			}
			if got, ok := p.get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("get(%q) = %q, %v; the walk read %q", k, got, ok, v)
			}
			n, prev = n+1, k
			return true
		})
		if want := int(binary.BigEndian.Uint16(p.raw)); n != want {
			t.Fatalf("walked %d records, count says %d", n, want)
		}
		s := p
		s.set(key, val)
		if got, ok := s.get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("after set, get(%q) = %q, %v", key, got, ok)
		}
		if _, err := decodePage(s.raw); err != nil {
			t.Fatalf("set built an invalid image: %v", err)
		}
		d := p
		d.delete(key)
		if _, ok := d.get(key); ok {
			t.Fatalf("after delete, %q is still there", key)
		}
		if _, err := decodePage(d.raw); err != nil {
			t.Fatalf("delete built an invalid image: %v", err)
		}
		if len(s.raw) != len(p.raw)+p.grows(key, val, true) || len(d.raw) != len(p.raw)+p.grows(key, nil, false) {
			t.Fatalf("grows mispredicts: %d -> set %d (+%d), delete %d (%+d)",
				len(p.raw), len(s.raw), p.grows(key, val, true), len(d.raw), p.grows(key, nil, false))
		}
		if !bytes.Equal(p.raw, orig) {
			t.Fatal("set or delete wrote into the image it was given")
		}
	})
}
