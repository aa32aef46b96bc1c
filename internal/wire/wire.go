// Package wire is the tree's one binary record codec. cflink frames its
// CF commands with it, and the records a transaction writes or sends
// are images in it: the VTAM generic-resource instance, txmgr's XCF
// routing message, db's log record and logr's envelope.
//
// Scalar fields are uvarints (zigzag varints where signed); strings and
// byte blocks are length-prefixed. A record image opens with a layout
// byte (Record, OpenRecord), so an image in any other layout — the JSON
// earlier builds wrote, say — fails with ErrLayout instead of decoding
// to garbage. Decoding never panics and never reads past its input:
// truncated, oversized or corrupt images fail with ErrMalformed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors.
var (
	ErrMalformed = errors.New("wire: malformed image")
	ErrLayout    = errors.New("wire: image is not in the current layout")
)

// Encoder appends fields to Buf. It cannot fail; callers enforce size
// limits on the finished image.
type Encoder struct {
	Buf []byte
}

// Record starts a record image: the layout byte, with room for size
// bytes in all.
func Record(layout byte, size int) Encoder {
	return Encoder{Buf: append(make([]byte, 0, size), layout)}
}

func (e *Encoder) U8(v uint8)       { e.Buf = append(e.Buf, v) }
func (e *Encoder) Bool(v bool)      { e.U8(boolByte(v)) }
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Encoder) Int(v int)        { e.Varint(int64(v)) }
func (e *Encoder) Bytes(v []byte)   { e.Uvarint(uint64(len(v))); e.Buf = append(e.Buf, v...) }
func (e *Encoder) Str(v string)     { e.Uvarint(uint64(len(v))); e.Buf = append(e.Buf, v...) }

func (e *Encoder) Strings(v []string) {
	e.Uvarint(uint64(len(v)))
	for _, s := range v {
		e.Str(s)
	}
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Decoder consumes fields from an image. Errors are sticky: after the
// first malformed field every later read returns a zero value, so call
// sites check Finish once at the end.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder reads b from its first byte.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// OpenRecord reads a record image past its layout byte. An image that
// does not open with layout fails every read, and Finish reports
// ErrLayout.
func OpenRecord(raw []byte, layout byte) *Decoder {
	d := &Decoder{b: raw, off: 1}
	if len(raw) == 0 || raw[0] != layout {
		d.err = layoutError(raw)
	}
	return d
}

func layoutError(raw []byte) error {
	return fmt.Errorf("%w: %d bytes starting %q", ErrLayout, len(raw), raw[:min(len(raw), 8)])
}

// Fail marks the image malformed; callers use it for a field whose
// value their own layout rejects.
func (d *Decoder) Fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

// Err is the first decode error so far, before the trailing-bytes check
// Finish adds.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off >= len(d.b) {
		d.Fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Decoder) Bool() bool { return d.U8() != 0 }

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Int() int { return int(d.Varint()) }

// span returns the next length-prefixed field without copying it.
func (d *Decoder) span() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.Fail()
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// Bytes returns a copy of the next byte block; an empty one is nil.
func (d *Decoder) Bytes() []byte {
	v := d.span()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

func (d *Decoder) Str() string { return string(d.span()) }

func (d *Decoder) Strings() []string {
	n := d.Count(uint64(len(d.b)))
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

// Count decodes an element count, rejecting one beyond max or beyond
// what the rest of the image could hold (every element costs at least
// one byte) before the caller allocates for it.
func (d *Decoder) Count(max uint64) int {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) || n > max {
		d.Fail()
		return 0
	}
	return int(n)
}

// Finish reports a decode error if any field was malformed or bytes
// remain: an image must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return nil
}
