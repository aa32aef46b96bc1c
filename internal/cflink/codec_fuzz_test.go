package cflink

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sysplex/internal/cf"
)

// FuzzDecoder throws arbitrary bytes at every decode shape the protocol
// uses (request headers, each composite field, response envelopes). The
// invariant is total safety: malformed, truncated, and corrupt payloads
// must come back as errors — never a panic, never an out-of-bounds
// read, never a giant allocation from a forged element count.
func FuzzDecoder(f *testing.F) {
	vecs := newVecMap()
	var seed encoder
	seed.uvarint(12)
	seed.u8(opExec)
	seed.string("MSGQ")
	seed.cmd(&cf.Cmd{Kind: cf.CmdListWrite, Conn: "SYSA", Idx: 3, Name: "id-1", Key: "key",
		Data: []byte("data"), Order: cf.Keyed, Cond: cf.Cond{Use: true, LockIndex: 1}}, vecs.id)
	f.Add(seed.b)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	var counts encoder
	counts.uvarint(1 << 50)
	f.Add(counts.b)
	// Batch envelope seeds: a well-formed two-subcommand batch, the
	// same one truncated mid-subcommand, and a forged count that
	// promises more subcommands than the payload carries (the classic
	// allocation-bomb shape the decoder must refuse).
	batch := cf.Cmd{Kind: cf.CmdBatch, Sub: []cf.Cmd{
		{Kind: cf.CmdLockRelease, Idx: 5, Conn: "SYSA", Mode: cf.Exclusive},
		{Kind: cf.CmdListWrite, Conn: "SYSA", Idx: 1, Name: "id", Key: "key", Data: []byte("rec"), Order: cf.Keyed, Cond: cf.Cond{Use: true}},
	}}
	var bseed encoder
	bseed.cmd(&batch, vecs.id)
	f.Add(bseed.b)
	f.Add(bseed.b[:len(bseed.b)/2])
	var bcount encoder
	bcount.u8(uint8(cf.CmdBatch))
	bcount.uvarint(uint64(cf.MaxBatchOps) + 1)
	bcount.u8(uint8(cf.CmdLockRelease))
	f.Add(bcount.b)
	var berrs encoder
	berrs.reply(&batch, &cf.Reply{Errs: []error{nil, cf.ErrEntryNotFound}})
	f.Add(berrs.b)
	// One descriptor and one reply per row of the command table, so a
	// new command is fuzzed from the day it is added.
	for _, k := range allKinds() {
		c, r := fillCmd(k, "SYSA"), fillReply(k)
		var ce, re encoder
		ce.cmd(&c, vecs.id)
		re.reply(&c, &r)
		f.Add(ce.b)
		f.Add(re.b)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Request-header shape.
		d := &decoder{b: payload}
		d.uvarint()
		d.u8()
		d.string()
		_ = d.finish()

		// Every composite decoder.
		for _, dec := range []func(d *decoder){
			func(d *decoder) { d.strings() },
			func(d *decoder) { d.lockRecords() },
			func(d *decoder) { d.listEntries() },
			func(d *decoder) { d.listEntry() },
			func(d *decoder) { d.lockRecord() },
			func(d *decoder) { d.bytes() },
			func(d *decoder) { d.varint(); d.uvarint(); d.bool() },
			func(d *decoder) {
				if c := d.cmd(vecs.vec, false); len(c.Sub) > cf.MaxBatchOps {
					t.Fatalf("cmd decoded %d subcommands > MaxBatchOps", len(c.Sub))
				}
			},
			func(d *decoder) {
				// The payload as the reply to every kind of request.
				for _, k := range allKinds() {
					c := fillCmd(k, "SYSA")
					dd := &decoder{b: d.b}
					if r := dd.reply(&c); len(r.Errs) > len(c.Sub) || len(r.Sub) > len(c.Sub) {
						t.Fatalf("reply decoded %d statuses, %d replies for %d subcommands", len(r.Errs), len(r.Sub), len(c.Sub))
					}
				}
			},
		} {
			dd := &decoder{b: payload}
			dec(dd)
			_ = dd.finish()
		}

		// Response-envelope shape: code then either detail or results.
		rd := &decoder{b: payload}
		code := rd.u8()
		if code != codeOK {
			detail := rd.string()
			if rd.err == nil {
				_ = decodeErr(code, detail)
			}
		} else {
			rd.bytes()
			rd.bool()
			rd.uvarint()
			_ = rd.finish()
		}
	})
}

// FuzzFrame feeds arbitrary byte streams to the frame reader: any input
// either yields a bounded payload or a clean error.
func FuzzFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, []byte("payload"))
	f.Add(good.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})

	f.Fuzz(func(t *testing.T, stream []byte) {
		payload, err := readFrame(bytes.NewReader(stream), nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("readFrame returned %d bytes > MaxFrame", len(payload))
		}
		if len(stream) >= 4 {
			want := binary.BigEndian.Uint32(stream[:4])
			if uint32(len(payload)) != want {
				t.Fatalf("payload %d bytes, prefix says %d", len(payload), want)
			}
		}
	})
}

// FuzzRoundTrip checks the encode→decode identity on fuzzer-chosen
// field values: whatever goes in must come out, bit-exact.
func FuzzRoundTrip(f *testing.F) {
	f.Add("conn", "res.key", int64(2), []byte("block"), true, int64(7))
	f.Add("", "", int64(-1), []byte{}, false, int64(0))

	f.Fuzz(func(t *testing.T, s1, s2 string, i1 int64, b []byte, flag bool, i2 int64) {
		var e encoder
		e.string(s1)
		e.string(s2)
		e.varint(i1)
		e.bytes(b)
		e.bool(flag)
		e.uvarint(uint64(i2))
		e.lockRecord(cf.LockRecord{Connector: s1, Resource: s2, Mode: cf.LockMode(i1)})
		e.listEntry(cf.ListEntry{ID: s1, Key: s2, Data: b, Adjunct: s2, List: int(i1)})

		d := &decoder{b: e.b}
		if got := d.string(); got != s1 {
			t.Fatalf("string = %q, want %q", got, s1)
		}
		if got := d.string(); got != s2 {
			t.Fatalf("string = %q, want %q", got, s2)
		}
		if got := d.varint(); got != i1 {
			t.Fatalf("varint = %d, want %d", got, i1)
		}
		got := d.bytes()
		if !bytes.Equal(got, b) && !(len(got) == 0 && len(b) == 0) {
			t.Fatalf("bytes = %v, want %v", got, b)
		}
		if d.bool() != flag {
			t.Fatal("bool mismatch")
		}
		if got := d.uvarint(); got != uint64(i2) {
			t.Fatalf("uvarint = %d, want %d", got, uint64(i2))
		}
		rec := d.lockRecord()
		if rec.Connector != s1 || rec.Resource != s2 || rec.Mode != cf.LockMode(i1) {
			t.Fatalf("lockRecord = %+v", rec)
		}
		le := d.listEntry()
		if le.ID != s1 || le.Key != s2 || le.Adjunct != s2 || le.List != int(i1) {
			t.Fatalf("listEntry = %+v", le)
		}
		if err := d.finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
}
