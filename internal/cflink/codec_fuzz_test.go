package cflink

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/wire"
)

// FuzzDecoder throws arbitrary bytes at every decode shape the protocol
// uses (request headers, each composite field, response envelopes). The
// invariant is total safety: malformed, truncated, and corrupt payloads
// must come back as errors — never a panic, never an out-of-bounds
// read, never a giant allocation from a forged element count.
func FuzzDecoder(f *testing.F) {
	vecs := newVecMap()
	var seed wire.Encoder
	seed.Uvarint(12)
	seed.U8(opExec)
	seed.Str("MSGQ")
	encodeCmd(&seed, &cf.Cmd{Kind: cf.CmdListWrite, Conn: "SYSA", Idx: 3, Name: "id-1", Key: "key",
		Data: []byte("data"), Order: cf.Keyed, Cond: cf.Cond{Use: true, LockIndex: 1}}, vecs.id)
	f.Add(seed.Buf)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	var counts wire.Encoder
	counts.Uvarint(1 << 50)
	f.Add(counts.Buf)
	// Batch envelope seeds: a well-formed two-subcommand batch, the
	// same one truncated mid-subcommand, and a forged count that
	// promises more subcommands than the payload carries (the classic
	// allocation-bomb shape the decoder must refuse).
	batch := cf.Cmd{Kind: cf.CmdBatch, Sub: []cf.Cmd{
		{Kind: cf.CmdLockRelease, Idx: 5, Conn: "SYSA", Mode: cf.Exclusive},
		{Kind: cf.CmdListWrite, Conn: "SYSA", Idx: 1, Name: "id", Key: "key", Data: []byte("rec"), Order: cf.Keyed, Cond: cf.Cond{Use: true}},
	}}
	var bseed wire.Encoder
	encodeCmd(&bseed, &batch, vecs.id)
	f.Add(bseed.Buf)
	f.Add(bseed.Buf[:len(bseed.Buf)/2])
	var bcount wire.Encoder
	bcount.U8(uint8(cf.CmdBatch))
	bcount.Uvarint(uint64(cf.MaxBatchOps) + 1)
	bcount.U8(uint8(cf.CmdLockRelease))
	f.Add(bcount.Buf)
	var berrs wire.Encoder
	encodeReply(&berrs, &batch, &cf.Reply{Errs: []error{nil, cf.ErrEntryNotFound}})
	f.Add(berrs.Buf)
	// Lock seeds naming a resource and its owner: an exclusive obtain
	// and the retained refusal it can get, a forced obtain, and the
	// release that deletes the owner's record.
	named := cf.Cmd{Kind: cf.CmdLockObtain, Idx: 11, Conn: "SYSA", Name: "R.DBP1.ACCT.k7", Key: "SYSA-000042", Mode: cf.Exclusive}
	for _, k := range []cf.Kind{cf.CmdLockObtain, cf.CmdLockForce, cf.CmdLockRelease} {
		c := named
		c.Kind = k
		var e wire.Encoder
		encodeCmd(&e, &c, vecs.id)
		f.Add(e.Buf)
	}
	var refused wire.Encoder
	encodeReply(&refused, &named, &cf.Reply{Text: "SYSB"})
	f.Add(refused.Buf)
	// One descriptor and one reply per row of the command table, so a
	// new command is fuzzed from the day it is added.
	for _, k := range allKinds() {
		c, r := fillCmd(k, "SYSA"), fillReply(k)
		var ce, re wire.Encoder
		encodeCmd(&ce, &c, vecs.id)
		encodeReply(&re, &c, &r)
		f.Add(ce.Buf)
		f.Add(re.Buf)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Request-header shape.
		d := wire.NewDecoder(payload)
		d.Uvarint()
		d.U8()
		d.Str()
		_ = d.Finish()

		// Every composite decoder.
		for _, dec := range []func(d *wire.Decoder){
			func(d *wire.Decoder) { d.Strings() },
			func(d *wire.Decoder) { decodeLockRecords(d) },
			func(d *wire.Decoder) { decodeListEntries(d) },
			func(d *wire.Decoder) { decodeListEntry(d) },
			func(d *wire.Decoder) { decodeLockRecord(d) },
			func(d *wire.Decoder) { d.Bytes() },
			func(d *wire.Decoder) { d.Varint(); d.Uvarint(); d.Bool() },
			func(d *wire.Decoder) {
				if c := decodeCmd(d, vecs.vec, false); len(c.Sub) > cf.MaxBatchOps {
					t.Fatalf("cmd decoded %d subcommands > MaxBatchOps", len(c.Sub))
				}
			},
			func(d *wire.Decoder) {
				// The payload as the reply to every kind of request.
				for _, k := range allKinds() {
					c := fillCmd(k, "SYSA")
					dd := wire.NewDecoder(payload)
					if r := decodeReply(dd, &c); len(r.Errs) > len(c.Sub) || len(r.Sub) > len(c.Sub) {
						t.Fatalf("reply decoded %d statuses, %d replies for %d subcommands", len(r.Errs), len(r.Sub), len(c.Sub))
					}
				}
			},
		} {
			dd := wire.NewDecoder(payload)
			dec(dd)
			_ = dd.Finish()
		}

		// Response-envelope shape: code then either detail or results.
		rd := wire.NewDecoder(payload)
		code := rd.U8()
		if code != codeOK {
			detail := rd.Str()
			if rd.Err() == nil {
				_ = decodeErr(code, detail)
			}
		} else {
			rd.Bytes()
			rd.Bool()
			rd.Uvarint()
			_ = rd.Finish()
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
// field values: whatever goes in must come out, bit-exact. A lock
// command carries s1 as its connector and owner and s2 as its resource.
func FuzzRoundTrip(f *testing.F) {
	f.Add("conn", "res.key", int64(2), []byte("block"), true, int64(7))
	f.Add("", "", int64(-1), []byte{}, false, int64(0))
	f.Add("SYS1-000042", "R.DBP1.ACCT.k17", int64(4095), []byte{}, false, int64(2))
	f.Add("SYS2", "P.DBP1.ACCT.3", int64(0), []byte{}, true, int64(1))

	f.Fuzz(func(t *testing.T, s1, s2 string, i1 int64, b []byte, flag bool, i2 int64) {
		var e wire.Encoder
		e.Str(s1)
		e.Str(s2)
		e.Varint(i1)
		e.Bytes(b)
		e.Bool(flag)
		e.Uvarint(uint64(i2))
		encodeLockRecord(&e, cf.LockRecord{Connector: s1, Resource: s2, Mode: cf.LockMode(i1), Owner: s1})
		encodeListEntry(&e, cf.ListEntry{ID: s1, Key: s2, Data: b, Adjunct: s2, List: int(i1)})
		lockCmds := []cf.Kind{cf.CmdLockObtain, cf.CmdLockForce, cf.CmdLockRelease, cf.CmdLockDelRecord}
		lk := cf.Cmd{Kind: lockCmds[uint64(i2)%uint64(len(lockCmds))], Idx: int(i1), Conn: s1, Name: s2, Key: s1}
		if in, _, _ := lk.Kind.Fields(); in&cf.FMode != 0 {
			lk.Mode = cf.LockMode(i2)
		}
		encodeCmd(&e, &lk, nil)

		d := wire.NewDecoder(e.Buf)
		if got := d.Str(); got != s1 {
			t.Fatalf("string = %q, want %q", got, s1)
		}
		if got := d.Str(); got != s2 {
			t.Fatalf("string = %q, want %q", got, s2)
		}
		if got := d.Varint(); got != i1 {
			t.Fatalf("varint = %d, want %d", got, i1)
		}
		got := d.Bytes()
		if !bytes.Equal(got, b) && !(len(got) == 0 && len(b) == 0) {
			t.Fatalf("bytes = %v, want %v", got, b)
		}
		if d.Bool() != flag {
			t.Fatal("bool mismatch")
		}
		if got := d.Uvarint(); got != uint64(i2) {
			t.Fatalf("uvarint = %d, want %d", got, uint64(i2))
		}
		rec := decodeLockRecord(d)
		if rec.Connector != s1 || rec.Resource != s2 || rec.Mode != cf.LockMode(i1) || rec.Owner != s1 {
			t.Fatalf("lockRecord = %+v", rec)
		}
		le := decodeListEntry(d)
		if le.ID != s1 || le.Key != s2 || le.Adjunct != s2 || le.List != int(i1) {
			t.Fatalf("listEntry = %+v", le)
		}
		if got := decodeCmd(d, nil, false); !reflect.DeepEqual(got, lk) {
			t.Fatalf("lock command = %+v, want %+v", got, lk)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
}
