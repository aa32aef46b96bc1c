package cflink

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"sysplex/internal/cf"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1000), make([]byte, MaxFrame)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
		got, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("readFrame(%d bytes): %v", len(p), err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame round trip: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("writeFrame oversized: err = %v, want ErrFrameTooBig", err)
	}
	// A corrupt length prefix claiming more than MaxFrame must fail
	// before allocating the claimed size.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("readFrame oversized prefix: err = %v, want ErrFrameTooBig", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("hello, coupling facility")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		if _, err := readFrame(bytes.NewReader(whole[:cut]), nil); err == nil {
			t.Fatalf("readFrame of %d/%d bytes succeeded, want error", cut, len(whole))
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("readFrame of %d/%d bytes: unexpected error %v", cut, len(whole), err)
		}
	}
}

func TestScalarRoundTrip(t *testing.T) {
	var e encoder
	e.u8(7)
	e.bool(true)
	e.bool(false)
	e.uvarint(0)
	e.uvarint(1 << 62)
	e.varint(-1234567)
	e.int(42)
	e.string("")
	e.string("IGWLOCK00")
	e.bytes(nil)
	e.bytes([]byte{1, 2, 3})
	e.strings([]string{"SYSA", "SYSB"})

	d := &decoder{b: e.b}
	if got := d.u8(); got != 7 {
		t.Fatalf("u8 = %d", got)
	}
	if !d.bool() || d.bool() {
		t.Fatal("bool round trip")
	}
	if got := d.uvarint(); got != 0 {
		t.Fatalf("uvarint(0) = %d", got)
	}
	if got := d.uvarint(); got != 1<<62 {
		t.Fatalf("uvarint(1<<62) = %d", got)
	}
	if got := d.varint(); got != -1234567 {
		t.Fatalf("varint = %d", got)
	}
	if got := d.int(); got != 42 {
		t.Fatalf("int = %d", got)
	}
	if got := d.string(); got != "" {
		t.Fatalf("string(empty) = %q", got)
	}
	if got := d.string(); got != "IGWLOCK00" {
		t.Fatalf("string = %q", got)
	}
	if got := d.bytes(); got != nil {
		t.Fatalf("bytes(nil) = %v", got)
	}
	if got := d.bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	ss := d.strings()
	if len(ss) != 2 || ss[0] != "SYSA" || ss[1] != "SYSB" {
		t.Fatalf("strings = %v", ss)
	}
	if err := d.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestCompositeRoundTrip(t *testing.T) {
	recs := []cf.LockRecord{
		{Connector: "SYSA", Resource: "DB.T1.R9", Mode: cf.Exclusive},
		{Connector: "SYSB", Resource: "DB.T1.R10", Mode: cf.Share},
	}
	entries := []cf.ListEntry{
		{ID: "msg-1", Key: "k1", Data: []byte("payload"), Adjunct: "adj", List: 3},
		{ID: "msg-2", List: 0},
	}
	// The conditional-execution field travels as part of a descriptor.
	cond := cf.Cmd{Kind: cf.CmdListPop, Conn: "SYSA", Cond: cf.Cond{Use: true, LockIndex: 5}}

	var e encoder
	e.lockRecords(recs)
	e.listEntries(entries)
	e.cmd(&cond, nil)

	d := &decoder{b: e.b}
	gotRecs := d.lockRecords()
	gotEntries := d.listEntries()
	gotCond := d.cmd(nil, false)
	if err := d.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if fmt.Sprint(gotRecs) != fmt.Sprint(recs) {
		t.Fatalf("lockRecords = %v, want %v", gotRecs, recs)
	}
	if len(gotEntries) != len(entries) {
		t.Fatalf("listEntries len = %d", len(gotEntries))
	}
	for i := range entries {
		if gotEntries[i].ID != entries[i].ID || gotEntries[i].Key != entries[i].Key ||
			!bytes.Equal(gotEntries[i].Data, entries[i].Data) ||
			gotEntries[i].Adjunct != entries[i].Adjunct || gotEntries[i].List != entries[i].List {
			t.Fatalf("listEntries[%d] = %+v, want %+v", i, gotEntries[i], entries[i])
		}
	}
	if gotCond.Cond != cond.Cond || gotCond.Conn != cond.Conn {
		t.Fatalf("cond = %+v, want %+v", gotCond, cond)
	}
}

func TestDecoderTruncation(t *testing.T) {
	// Build a payload of every field kind, then decode every prefix of
	// it: each must fail cleanly via finish(), never panic, never read
	// out of bounds.
	var e encoder
	e.string("structure")
	e.lockRecords([]cf.LockRecord{{Connector: "SYSA", Resource: "R", Mode: cf.Share}})
	e.listEntries([]cf.ListEntry{{ID: "x", Data: []byte("d")}})
	e.strings([]string{"a", "b"})
	e.varint(-9)
	whole := e.b
	for cut := 0; cut < len(whole); cut++ {
		d := &decoder{b: whole[:cut]}
		d.string()
		d.lockRecords()
		d.listEntries()
		d.strings()
		d.varint()
		if err := d.finish(); err == nil {
			t.Fatalf("decode of %d/%d bytes finished clean, want error", cut, len(whole))
		}
	}
}

func TestDecoderCountOverflow(t *testing.T) {
	// A corrupt element count larger than the remaining payload must be
	// rejected before allocation.
	var e encoder
	e.uvarint(1 << 40)
	for _, dec := range []func(d *decoder){
		func(d *decoder) { d.strings() },
		func(d *decoder) { d.lockRecords() },
		func(d *decoder) { d.listEntries() },
		func(d *decoder) { d.bytes() },
		func(d *decoder) { d.string() },
	} {
		d := &decoder{b: e.b}
		dec(d)
		if d.err == nil {
			t.Fatal("oversized count accepted")
		}
	}
}

func TestErrCodeRoundTrip(t *testing.T) {
	for _, sentinel := range codeSentinels[1:] {
		code, detail := encodeErr(fmt.Errorf("wrapped: %w", sentinel))
		got := decodeErr(code, detail)
		if !errors.Is(got, sentinel) {
			t.Fatalf("decodeErr(%d) = %v, want Is(%v)", code, got, sentinel)
		}
		if got.Error() != "wrapped: "+sentinel.Error() {
			t.Fatalf("decodeErr detail = %q", got.Error())
		}
	}
	// Bare sentinel: comes back as the sentinel itself.
	code, detail := encodeErr(cf.ErrCFDown)
	if got := decodeErr(code, detail); got != cf.ErrCFDown {
		t.Fatalf("bare sentinel decode = %v", got)
	}
	// Unknown error: detail-only.
	code, detail = encodeErr(errors.New("disk on fire"))
	if code != codeOther {
		t.Fatalf("unknown error code = %d", code)
	}
	if got := decodeErr(code, detail); got.Error() != "disk on fire" {
		t.Fatalf("unknown error detail = %q", got.Error())
	}
}
