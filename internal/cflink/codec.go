// Package cflink is the CF transport subsystem: it runs a coupling
// facility in its own process and connects systems to it over a real
// byte stream (TCP or unix sockets), the repo's stand-in for the
// paper's coupling links (§3.3). A Server wraps an in-process
// cf.Facility and serves its command set; a Client implements cf.Node
// and its structure handles cf.Replica, so the duplexed front, cfrm
// duplexing, in-line failover, and the command pipeline all work
// unchanged over the wire (DESIGN §11).
//
// Wire format. Every message is one frame: a 4-byte big-endian length
// followed by that many payload bytes, capped at MaxFrame. A session
// has two connections:
//
//   - the command connection carries request frames (uvarint request
//     ID, 1-byte opcode, then either a node-level operation's fields or,
//     for opExec, a structure name and one command descriptor) and
//     matching response frames (request ID, 1-byte status — 0 ok, else
//     an error code mapping to a cf sentinel — then results or a detail
//     string); responses may arrive out of request order.
//   - the notification connection carries server-pushed bit-vector
//     flips (vector ID, zigzag bit index with -1 meaning ClearAll, new
//     state), the wire form of the CF flipping bits in system-owned
//     vectors with no interrupt: cross-invalidates and list
//     transitions reach the client without a command round trip.
//
// Structure commands have one request layout and one reply layout, both
// driven by the cf command table: a descriptor is its kind byte
// followed by exactly the fields the table lists for that kind, in
// field-set bit order, and a reply is the reply fields the table lists
// (encodeCmd / encodeReply). A batch envelope is the descriptor
// whose one field is its subcommand list. Adding a command to the
// table puts it on the wire; there is nothing to extend here.
//
// Fields are in the tree's one record codec, internal/wire: uvarints
// (zigzag varints where signed), length-prefixed strings and byte
// blocks. Decoding never panics on malformed input: truncated,
// oversized, or corrupt frames fail with an error (fuzzed in
// codec_fuzz_test.go).
package cflink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sysplex/internal/cf"
	"sysplex/internal/wire"
)

// MaxFrame bounds one frame's payload. Large enough for any structure
// command (cache blocks and list payloads are KB-class); small enough
// that a corrupt length prefix cannot balloon allocation.
const MaxFrame = 1 << 20

// Frame-level errors.
var (
	ErrFrameTooBig = errors.New("cflink: frame exceeds MaxFrame")
	ErrMalformed   = wire.ErrMalformed
)

// magic opens every session's first frame on both connection kinds; its
// last byte is the wire revision, bumped whenever a Kind or Fields bit
// moves or a row's fields or a record's layout change.
var magic = [4]byte{'C', 'F', 'L', '6'}

// Connection kinds declared in the session handshake.
//
// lintwire: table connkinds
const (
	connCommand uint8 = 0
	connNotify  uint8 = 1
)

// Opcodes. Node-level operations address the facility itself; every
// structure command travels as opExec plus a descriptor.
//
// lintwire: table opcodes
const (
	opStructureNames   uint8 = 1
	opFailed           uint8 = 2
	opFail             uint8 = 3
	opFailAfter        uint8 = 4
	opDeallocate       uint8 = 5
	opAllocLock        uint8 = 6
	opAllocCache       uint8 = 7
	opAllocList        uint8 = 8
	opStructInfo       uint8 = 9
	opFence            uint8 = 10
	opStructDisconnect uint8 = 11
	opStructFailConn   uint8 = 12
	opExec             uint8 = 13
)

// Response status codes. 0 is success; the rest map to the cf command
// sentinels so errors.Is works across the wire. The constants work
// positionally through codeSentinels, so sysplexlint checks the bytes
// for collisions and the sentinel table for coverage rather than
// requiring each name to appear in a switch.
//
// lintwire: table statuses
const (
	codeOK uint8 = iota
	codeCFDown
	codeNoStructure
	codeWrongModel
	codeExists
	codeStorage
	codeNotConnected
	codeLockHeld
	codeEntryNotFound
	codeListFull
	codeCacheFull
	codeBadArgument
	codeCloneUnsupported

	// codeOther carries errors with no sentinel: the detail string is
	// all the client gets.
	codeOther uint8 = 255
)

// codeSentinels maps status codes to cf sentinel errors (index = code);
// sysplexlint fails the build if a status constant below the codeOther
// catch-all has no entry here.
//
// lintwire: index-of statuses
var codeSentinels = []error{
	nil,
	cf.ErrCFDown,
	cf.ErrNoStructure,
	cf.ErrWrongModel,
	cf.ErrExists,
	cf.ErrStorage,
	cf.ErrNotConnected,
	cf.ErrLockHeld,
	cf.ErrEntryNotFound,
	cf.ErrListFull,
	cf.ErrCacheFull,
	cf.ErrBadArgument,
	cf.ErrCloneUnsupported,
}

// encodeErr classifies err for the wire: the sentinel's status code
// plus the full rendered message as detail.
func encodeErr(err error) (code uint8, detail string) {
	for c := 1; c < len(codeSentinels); c++ {
		if errors.Is(err, codeSentinels[c]) {
			return uint8(c), err.Error()
		}
	}
	return codeOther, err.Error()
}

// wireError is a decoded command failure: the server's rendered message
// with the matching cf sentinel restored for errors.Is.
type wireError struct {
	sentinel error
	detail   string
}

func (e *wireError) Error() string { return e.detail }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeErr reconstructs a command error from its wire form.
func decodeErr(code uint8, detail string) error {
	if int(code) < len(codeSentinels) && code != codeOK {
		s := codeSentinels[code]
		if detail == "" || detail == s.Error() {
			return s
		}
		return &wireError{sentinel: s, detail: detail}
	}
	if detail == "" {
		detail = fmt.Sprintf("cflink: remote error (code %d)", code)
	}
	return errors.New(detail)
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough. An
// oversized length prefix fails with ErrFrameTooBig before any payload
// allocation.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// LockRecord encoding.

func encodeLockRecord(e *wire.Encoder, r cf.LockRecord) {
	e.Str(r.Connector)
	e.Str(r.Resource)
	e.Int(int(r.Mode))
	e.Str(r.Owner)
}

func decodeLockRecord(d *wire.Decoder) cf.LockRecord {
	return cf.LockRecord{
		Connector: d.Str(),
		Resource:  d.Str(),
		Mode:      cf.LockMode(d.Int()),
		Owner:     d.Str(),
	}
}

func encodeLockRecords(e *wire.Encoder, rs []cf.LockRecord) {
	e.Uvarint(uint64(len(rs)))
	for _, r := range rs {
		encodeLockRecord(e, r)
	}
}

func decodeLockRecords(d *wire.Decoder) []cf.LockRecord {
	n := d.Count(MaxFrame)
	out := make([]cf.LockRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodeLockRecord(d))
	}
	return out
}

// ListEntry encoding.

func encodeListEntry(e *wire.Encoder, le cf.ListEntry) {
	e.Str(le.ID)
	e.Str(le.Key)
	e.Bytes(le.Data)
	e.Str(le.Adjunct)
	e.Int(le.List)
}

func decodeListEntry(d *wire.Decoder) cf.ListEntry {
	return cf.ListEntry{
		ID:      d.Str(),
		Key:     d.Str(),
		Data:    d.Bytes(),
		Adjunct: d.Str(),
		List:    d.Int(),
	}
}

func encodeListEntries(e *wire.Encoder, es []cf.ListEntry) {
	e.Uvarint(uint64(len(es)))
	for _, le := range es {
		encodeListEntry(e, le)
	}
}

func decodeListEntries(d *wire.Decoder) []cf.ListEntry {
	n := d.Count(MaxFrame)
	out := make([]cf.ListEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodeListEntry(d))
	}
	return out
}

// cmdCodec is the wire form of each descriptor field, encoder beside
// decoder. A descriptor is its kind byte followed by the rows whose
// field its kind's table entry lists, in row order. Vector and Sub
// need link context and follow the rows (see cmd).
var cmdCodec = [...]struct {
	f   cf.Fields
	enc func(*wire.Encoder, *cf.Cmd)
	dec func(*wire.Decoder, *cf.Cmd)
}{
	{cf.FConn, func(e *wire.Encoder, c *cf.Cmd) { e.Str(c.Conn) }, func(d *wire.Decoder, c *cf.Cmd) { c.Conn = d.Str() }},
	{cf.FName, func(e *wire.Encoder, c *cf.Cmd) { e.Str(c.Name) }, func(d *wire.Decoder, c *cf.Cmd) { c.Name = d.Str() }},
	{cf.FKey, func(e *wire.Encoder, c *cf.Cmd) { e.Str(c.Key) }, func(d *wire.Decoder, c *cf.Cmd) { c.Key = d.Str() }},
	{cf.FIdx, func(e *wire.Encoder, c *cf.Cmd) { e.Int(c.Idx) }, func(d *wire.Decoder, c *cf.Cmd) { c.Idx = d.Int() }},
	{cf.FVecIdx, func(e *wire.Encoder, c *cf.Cmd) { e.Int(c.VecIdx) }, func(d *wire.Decoder, c *cf.Cmd) { c.VecIdx = d.Int() }},
	{cf.FMode, func(e *wire.Encoder, c *cf.Cmd) { e.Int(int(c.Mode)) }, func(d *wire.Decoder, c *cf.Cmd) { c.Mode = cf.LockMode(d.Int()) }},
	{cf.FOrder, func(e *wire.Encoder, c *cf.Cmd) { e.Int(int(c.Order)) }, func(d *wire.Decoder, c *cf.Cmd) { c.Order = cf.Order(d.Int()) }},
	{cf.FVersion, func(e *wire.Encoder, c *cf.Cmd) { e.Uvarint(c.Version) }, func(d *wire.Decoder, c *cf.Cmd) { c.Version = d.Uvarint() }},
	{cf.FCond, func(e *wire.Encoder, c *cf.Cmd) { e.Bool(c.Cond.Use); e.Int(c.Cond.LockIndex) },
		func(d *wire.Decoder, c *cf.Cmd) { c.Cond = cf.Cond{Use: d.Bool(), LockIndex: d.Int()} }},
	{cf.FFlags, func(e *wire.Encoder, c *cf.Cmd) { e.Bool(c.Cache); e.Bool(c.Changed) },
		func(d *wire.Decoder, c *cf.Cmd) { c.Cache, c.Changed = d.Bool(), d.Bool() }},
	{cf.FData, func(e *wire.Encoder, c *cf.Cmd) { e.Bytes(c.Data) }, func(d *wire.Decoder, c *cf.Cmd) { c.Data = d.Bytes() }},
}

// encodeCmd encodes one descriptor. A connector's bit vector crosses as
// (wire ID, length): vecID registers the real vector on the client.
func encodeCmd(e *wire.Encoder, c *cf.Cmd, vecID func(*cf.BitVector) uint64) {
	e.U8(uint8(c.Kind))
	// An unknown kind has no fields and encodes as the bare byte; the
	// decoder rejects it.
	in, _, _ := c.Kind.Fields()
	for i := range cmdCodec {
		if in&cmdCodec[i].f != 0 {
			cmdCodec[i].enc(e, c)
		}
	}
	if in&cf.FVector != 0 {
		n := 0
		if c.Vector != nil {
			n = c.Vector.Len()
		}
		e.Uvarint(vecID(c.Vector))
		e.Int(n)
	}
	if in&cf.FSub != 0 {
		e.Uvarint(uint64(len(c.Sub)))
		for i := range c.Sub {
			encodeCmd(e, &c.Sub[i], vecID)
		}
	}
}

// decodeCmd decodes one descriptor; vec resolves a vector's wire ID to the
// server's shadow of it. An unknown kind byte, an envelope inside an
// envelope, or a subcommand count beyond cf.MaxBatchOps (or beyond
// what the remaining payload could hold) is malformed — rejected before
// anything is allocated for it.
func decodeCmd(d *wire.Decoder, vec func(id uint64, length int) *cf.BitVector, nested bool) cf.Cmd {
	c := cf.Cmd{Kind: cf.Kind(d.U8())}
	in, _, ok := c.Kind.Fields()
	if !ok || (nested && c.Kind == cf.CmdBatch) {
		d.Fail()
		return c
	}
	for i := range cmdCodec {
		if in&cmdCodec[i].f != 0 {
			cmdCodec[i].dec(d, &c)
		}
	}
	if in&cf.FVector != 0 {
		if id, n := d.Uvarint(), d.Int(); d.Err() == nil {
			c.Vector = vec(id, n)
		}
	}
	if in&cf.FSub != 0 {
		n := d.Count(cf.MaxBatchOps)
		c.Sub = make([]cf.Cmd, 0, n)
		for i := 0; i < n; i++ {
			c.Sub = append(c.Sub, decodeCmd(d, vec, true))
		}
	}
	return c
}

// replyCodec is the wire form of each reply field. A reply is the rows
// its command's table entry lists; both sides know the kind from the
// request, so no kind byte is repeated.
var replyCodec = [...]struct {
	f   cf.Fields
	enc func(*wire.Encoder, *cf.Reply)
	dec func(*wire.Decoder, *cf.Reply)
}{
	{cf.RFlag, func(e *wire.Encoder, r *cf.Reply) { e.Bool(r.Flag) }, func(d *wire.Decoder, r *cf.Reply) { r.Flag = d.Bool() }},
	{cf.RCounts, func(e *wire.Encoder, r *cf.Reply) { e.Int(r.N); e.Int(r.M) }, func(d *wire.Decoder, r *cf.Reply) { r.N, r.M = d.Int(), d.Int() }},
	{cf.RVersion, func(e *wire.Encoder, r *cf.Reply) { e.Uvarint(r.Version) }, func(d *wire.Decoder, r *cf.Reply) { r.Version = d.Uvarint() }},
	{cf.RText, func(e *wire.Encoder, r *cf.Reply) { e.Str(r.Text) }, func(d *wire.Decoder, r *cf.Reply) { r.Text = d.Str() }},
	{cf.RData, func(e *wire.Encoder, r *cf.Reply) { e.Bytes(r.Data) }, func(d *wire.Decoder, r *cf.Reply) { r.Data = d.Bytes() }},
	{cf.RNames, func(e *wire.Encoder, r *cf.Reply) { e.Strings(r.Names) }, func(d *wire.Decoder, r *cf.Reply) { r.Names = d.Strings() }},
	{cf.RRecords, func(e *wire.Encoder, r *cf.Reply) { encodeLockRecords(e, r.Records) }, func(d *wire.Decoder, r *cf.Reply) { r.Records = decodeLockRecords(d) }},
	{cf.REntry, func(e *wire.Encoder, r *cf.Reply) { encodeListEntry(e, r.Entry) }, func(d *wire.Decoder, r *cf.Reply) { r.Entry = decodeListEntry(d) }},
	{cf.REntries, func(e *wire.Encoder, r *cf.Reply) { encodeListEntries(e, r.Entries) }, func(d *wire.Decoder, r *cf.Reply) { r.Entries = decodeListEntries(d) }},
}

// encodeReply encodes the reply to c. An envelope's reply is one status byte
// per subcommand — codeOK followed by that subcommand's reply, or an
// error code and its detail string — so errors.Is works per subcommand
// across the wire.
func encodeReply(e *wire.Encoder, c *cf.Cmd, r *cf.Reply) {
	_, out, _ := c.Kind.Fields()
	for i := range replyCodec {
		if out&replyCodec[i].f != 0 {
			replyCodec[i].enc(e, r)
		}
	}
	if out&cf.RSub != 0 {
		e.Uvarint(uint64(len(r.Errs)))
		for i, err := range r.Errs {
			if err != nil {
				code, detail := encodeErr(err)
				e.U8(code)
				e.Str(detail)
				continue
			}
			e.U8(codeOK)
			if r.Sub != nil {
				encodeReply(e, &c.Sub[i], &r.Sub[i])
			}
		}
	}
}

func decodeReply(d *wire.Decoder, c *cf.Cmd) cf.Reply {
	var r cf.Reply
	_, out, _ := c.Kind.Fields()
	for i := range replyCodec {
		if out&replyCodec[i].f != 0 {
			replyCodec[i].dec(d, &r)
		}
	}
	if out&cf.RSub != 0 {
		// One status per subcommand sent, no more and no fewer.
		if n := d.Count(cf.MaxBatchOps); n != len(c.Sub) {
			d.Fail()
			return r
		}
		r.Errs = make([]error, len(c.Sub))
		for i := range c.Sub {
			if code := d.U8(); code != codeOK {
				r.Errs[i] = decodeErr(code, d.Str())
			} else if _, sout, _ := c.Sub[i].Kind.Fields(); sout != 0 {
				// As on the server, the reply slice exists only when a
				// subcommand has result fields to put in it.
				if r.Sub == nil {
					r.Sub = make([]cf.Reply, len(c.Sub))
				}
				r.Sub[i] = decodeReply(d, &c.Sub[i])
			}
		}
	}
	return r
}
