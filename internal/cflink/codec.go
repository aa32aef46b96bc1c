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
// (encoder.cmd / encoder.reply). A batch envelope is the descriptor
// whose one field is its subcommand list. Adding a command to the
// table puts it on the wire; there is nothing to extend here.
//
// Scalar fields are uvarints (zigzag varints where signed); strings and
// byte blocks are length-prefixed. The codec never panics on malformed
// input: truncated, oversized, or corrupt frames fail with an error
// (fuzzed in codec_fuzz_test.go).
package cflink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sysplex/internal/cf"
)

// MaxFrame bounds one frame's payload. Large enough for any structure
// command (cache blocks and list payloads are KB-class); small enough
// that a corrupt length prefix cannot balloon allocation.
const MaxFrame = 1 << 20

// Frame-level errors.
var (
	ErrFrameTooBig = errors.New("cflink: frame exceeds MaxFrame")
	ErrMalformed   = errors.New("cflink: malformed frame")
)

// magic opens every session's first frame on both connection kinds; its
// last byte is the wire revision, bumped whenever a Kind or Fields bit moves.
var magic = [4]byte{'C', 'F', 'L', '3'}

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
	opSetSyncLatency   uint8 = 5
	opDeallocate       uint8 = 6
	opAllocLock        uint8 = 7
	opAllocCache       uint8 = 8
	opAllocList        uint8 = 9
	opStructInfo       uint8 = 10
	opFence            uint8 = 11
	opStructDisconnect uint8 = 12
	opStructFailConn   uint8 = 13
	opExec             uint8 = 14
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

// encoder appends wire-format fields to a payload buffer. It cannot
// fail; size limits are enforced at frame-write time.
type encoder struct {
	b []byte
}

func (e *encoder) u8(v uint8)       { e.b = append(e.b, v) }
func (e *encoder) bool(v bool)      { e.b = append(e.b, boolByte(v)) }
func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) int(v int)        { e.varint(int64(v)) }

func (e *encoder) bytes(v []byte) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

func (e *encoder) string(v string) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decoder consumes wire-format fields from a payload. Errors are
// sticky: after the first malformed field every subsequent read returns
// a zero value, so decode call sites check err once at the end. It
// never panics and never reads past the payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:])
	d.off += int(n)
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

// finish reports a decode error if any field was malformed or trailing
// bytes remain (a frame must be consumed exactly).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return nil
}

// stringSlice encoding: uvarint count, then each string.

func (e *encoder) strings(v []string) {
	e.uvarint(uint64(len(v)))
	for _, s := range v {
		e.string(s)
	}
}

func (d *decoder) strings() []string {
	n := d.count(MaxFrame)
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.string())
	}
	return out
}

// LockRecord encoding.

func (e *encoder) lockRecord(r cf.LockRecord) {
	e.string(r.Connector)
	e.string(r.Resource)
	e.int(int(r.Mode))
}

func (d *decoder) lockRecord() cf.LockRecord {
	return cf.LockRecord{
		Connector: d.string(),
		Resource:  d.string(),
		Mode:      cf.LockMode(d.int()),
	}
}

func (e *encoder) lockRecords(rs []cf.LockRecord) {
	e.uvarint(uint64(len(rs)))
	for _, r := range rs {
		e.lockRecord(r)
	}
}

func (d *decoder) lockRecords() []cf.LockRecord {
	n := d.count(MaxFrame)
	if d.err != nil {
		return nil
	}
	out := make([]cf.LockRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.lockRecord())
	}
	return out
}

// ListEntry encoding.

func (e *encoder) listEntry(le cf.ListEntry) {
	e.string(le.ID)
	e.string(le.Key)
	e.bytes(le.Data)
	e.string(le.Adjunct)
	e.int(le.List)
}

func (d *decoder) listEntry() cf.ListEntry {
	return cf.ListEntry{
		ID:      d.string(),
		Key:     d.string(),
		Data:    d.bytes(),
		Adjunct: d.string(),
		List:    d.int(),
	}
}

func (e *encoder) listEntries(es []cf.ListEntry) {
	e.uvarint(uint64(len(es)))
	for _, le := range es {
		e.listEntry(le)
	}
}

func (d *decoder) listEntries() []cf.ListEntry {
	n := d.count(MaxFrame)
	if d.err != nil {
		return nil
	}
	out := make([]cf.ListEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.listEntry())
	}
	return out
}

// cmdCodec is the wire form of each descriptor field, encoder beside
// decoder. A descriptor is its kind byte followed by the rows whose
// field its kind's table entry lists, in row order. Vector and Sub
// need link context and follow the rows (see cmd).
var cmdCodec = [...]struct {
	f   cf.Fields
	enc func(*encoder, *cf.Cmd)
	dec func(*decoder, *cf.Cmd)
}{
	{cf.FConn, func(e *encoder, c *cf.Cmd) { e.string(c.Conn) }, func(d *decoder, c *cf.Cmd) { c.Conn = d.string() }},
	{cf.FName, func(e *encoder, c *cf.Cmd) { e.string(c.Name) }, func(d *decoder, c *cf.Cmd) { c.Name = d.string() }},
	{cf.FKey, func(e *encoder, c *cf.Cmd) { e.string(c.Key) }, func(d *decoder, c *cf.Cmd) { c.Key = d.string() }},
	{cf.FIdx, func(e *encoder, c *cf.Cmd) { e.int(c.Idx) }, func(d *decoder, c *cf.Cmd) { c.Idx = d.int() }},
	{cf.FVecIdx, func(e *encoder, c *cf.Cmd) { e.int(c.VecIdx) }, func(d *decoder, c *cf.Cmd) { c.VecIdx = d.int() }},
	{cf.FMode, func(e *encoder, c *cf.Cmd) { e.int(int(c.Mode)) }, func(d *decoder, c *cf.Cmd) { c.Mode = cf.LockMode(d.int()) }},
	{cf.FOrder, func(e *encoder, c *cf.Cmd) { e.int(int(c.Order)) }, func(d *decoder, c *cf.Cmd) { c.Order = cf.Order(d.int()) }},
	{cf.FVersion, func(e *encoder, c *cf.Cmd) { e.uvarint(c.Version) }, func(d *decoder, c *cf.Cmd) { c.Version = d.uvarint() }},
	{cf.FCond, func(e *encoder, c *cf.Cmd) { e.bool(c.Cond.Use); e.int(c.Cond.LockIndex) },
		func(d *decoder, c *cf.Cmd) { c.Cond = cf.Cond{Use: d.bool(), LockIndex: d.int()} }},
	{cf.FFlags, func(e *encoder, c *cf.Cmd) { e.bool(c.Cache); e.bool(c.Changed) },
		func(d *decoder, c *cf.Cmd) { c.Cache, c.Changed = d.bool(), d.bool() }},
	{cf.FData, func(e *encoder, c *cf.Cmd) { e.bytes(c.Data) }, func(d *decoder, c *cf.Cmd) { c.Data = d.bytes() }},
}

// cmd encodes one descriptor. A connector's bit vector crosses as
// (wire ID, length): vecID registers the real vector on the client.
func (e *encoder) cmd(c *cf.Cmd, vecID func(*cf.BitVector) uint64) {
	e.u8(uint8(c.Kind))
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
		e.uvarint(vecID(c.Vector))
		e.int(n)
	}
	if in&cf.FSub != 0 {
		e.uvarint(uint64(len(c.Sub)))
		for i := range c.Sub {
			e.cmd(&c.Sub[i], vecID)
		}
	}
}

// cmd decodes one descriptor; vec resolves a vector's wire ID to the
// server's shadow of it. An unknown kind byte, an envelope inside an
// envelope, or a subcommand count beyond cf.MaxBatchOps (or beyond
// what the remaining payload could hold) is malformed — rejected before
// anything is allocated for it.
func (d *decoder) cmd(vec func(id uint64, length int) *cf.BitVector, nested bool) cf.Cmd {
	c := cf.Cmd{Kind: cf.Kind(d.u8())}
	in, _, ok := c.Kind.Fields()
	if !ok || (nested && c.Kind == cf.CmdBatch) {
		d.fail()
		return c
	}
	for i := range cmdCodec {
		if in&cmdCodec[i].f != 0 {
			cmdCodec[i].dec(d, &c)
		}
	}
	if in&cf.FVector != 0 {
		if id, n := d.uvarint(), d.int(); d.err == nil {
			c.Vector = vec(id, n)
		}
	}
	if in&cf.FSub != 0 {
		n := d.count(cf.MaxBatchOps)
		c.Sub = make([]cf.Cmd, 0, n)
		for i := 0; i < n; i++ {
			c.Sub = append(c.Sub, d.cmd(vec, true))
		}
	}
	return c
}

// count decodes an element count, rejecting one beyond max or beyond
// what the remaining payload could hold (every element costs ≥ 1 byte)
// before the caller allocates for it.
func (d *decoder) count(max uint64) int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) || n > max {
		d.fail()
		return 0
	}
	return int(n)
}

// replyCodec is the wire form of each reply field. A reply is the rows
// its command's table entry lists; both sides know the kind from the
// request, so no kind byte is repeated.
var replyCodec = [...]struct {
	f   cf.Fields
	enc func(*encoder, *cf.Reply)
	dec func(*decoder, *cf.Reply)
}{
	{cf.RFlag, func(e *encoder, r *cf.Reply) { e.bool(r.Flag) }, func(d *decoder, r *cf.Reply) { r.Flag = d.bool() }},
	{cf.RCounts, func(e *encoder, r *cf.Reply) { e.int(r.N); e.int(r.M) }, func(d *decoder, r *cf.Reply) { r.N, r.M = d.int(), d.int() }},
	{cf.RVersion, func(e *encoder, r *cf.Reply) { e.uvarint(r.Version) }, func(d *decoder, r *cf.Reply) { r.Version = d.uvarint() }},
	{cf.RText, func(e *encoder, r *cf.Reply) { e.string(r.Text) }, func(d *decoder, r *cf.Reply) { r.Text = d.string() }},
	{cf.RData, func(e *encoder, r *cf.Reply) { e.bytes(r.Data) }, func(d *decoder, r *cf.Reply) { r.Data = d.bytes() }},
	{cf.RNames, func(e *encoder, r *cf.Reply) { e.strings(r.Names) }, func(d *decoder, r *cf.Reply) { r.Names = d.strings() }},
	{cf.RRecords, func(e *encoder, r *cf.Reply) { e.lockRecords(r.Records) }, func(d *decoder, r *cf.Reply) { r.Records = d.lockRecords() }},
	{cf.REntry, func(e *encoder, r *cf.Reply) { e.listEntry(r.Entry) }, func(d *decoder, r *cf.Reply) { r.Entry = d.listEntry() }},
	{cf.REntries, func(e *encoder, r *cf.Reply) { e.listEntries(r.Entries) }, func(d *decoder, r *cf.Reply) { r.Entries = d.listEntries() }},
}

// reply encodes the reply to c. An envelope's reply is one status byte
// per subcommand — codeOK followed by that subcommand's reply, or an
// error code and its detail string — so errors.Is works per subcommand
// across the wire.
func (e *encoder) reply(c *cf.Cmd, r *cf.Reply) {
	_, out, _ := c.Kind.Fields()
	for i := range replyCodec {
		if out&replyCodec[i].f != 0 {
			replyCodec[i].enc(e, r)
		}
	}
	if out&cf.RSub != 0 {
		e.uvarint(uint64(len(r.Errs)))
		for i, err := range r.Errs {
			if err != nil {
				code, detail := encodeErr(err)
				e.u8(code)
				e.string(detail)
				continue
			}
			e.u8(codeOK)
			if r.Sub != nil {
				e.reply(&c.Sub[i], &r.Sub[i])
			}
		}
	}
}

func (d *decoder) reply(c *cf.Cmd) cf.Reply {
	var r cf.Reply
	_, out, _ := c.Kind.Fields()
	for i := range replyCodec {
		if out&replyCodec[i].f != 0 {
			replyCodec[i].dec(d, &r)
		}
	}
	if out&cf.RSub != 0 {
		// One status per subcommand sent, no more and no fewer.
		if n := d.count(cf.MaxBatchOps); n != len(c.Sub) {
			d.fail()
			return r
		}
		r.Errs = make([]error, len(c.Sub))
		for i := range c.Sub {
			if code := d.u8(); code != codeOK {
				r.Errs[i] = decodeErr(code, d.string())
			} else if _, sout, _ := c.Sub[i].Kind.Fields(); sout != 0 {
				// As on the server, the reply slice exists only when a
				// subcommand has result fields to put in it.
				if r.Sub == nil {
					r.Sub = make([]cf.Reply, len(c.Sub))
				}
				r.Sub[i] = d.reply(&c.Sub[i])
			}
		}
	}
	return r
}
