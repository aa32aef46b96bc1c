package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"sysplex/internal/dasd"
)

// ErrPageFull is returned when a record no longer fits its page.
var ErrPageFull = errors.New("db: page full")

// pageImage is a data page, read in place. The on-disk (and in-CF)
// encoding is
//
//	count uint16, then per record: klen uint16, key, vlen uint16, value
//
// with the records in strictly ascending key order. raw is a validated
// image trimmed to its records; get and each return slices of it, so
// set and delete build a new image and never write into the old one.
type pageImage struct {
	raw []byte
}

// emptyPage is the image of a page with no records. It is shared and
// never written into.
var emptyPage = []byte{0, 0}

func newPageImage() pageImage { return pageImage{raw: emptyPage} }

// decodePage validates raw as a page image. A block shorter than the
// count is an empty page (a never-written DASD block).
func decodePage(raw []byte) (pageImage, error) {
	if len(raw) < 2 {
		return newPageImage(), nil
	}
	n := int(binary.BigEndian.Uint16(raw))
	off := 2
	var prev []byte
	for i := 0; i < n; i++ {
		if off+2 > len(raw) {
			return pageImage{}, fmt.Errorf("db: truncated page at record %d", i)
		}
		klen := int(binary.BigEndian.Uint16(raw[off:]))
		off += 2
		if off+klen+2 > len(raw) {
			return pageImage{}, fmt.Errorf("db: truncated key at record %d", i)
		}
		key := raw[off : off+klen]
		if i > 0 && string(key) <= string(prev) {
			return pageImage{}, fmt.Errorf("db: page records out of key order at record %d", i)
		}
		prev = key
		off += klen
		vlen := int(binary.BigEndian.Uint16(raw[off:]))
		off += 2
		if off+vlen > len(raw) {
			return pageImage{}, fmt.Errorf("db: truncated value at record %d", i)
		}
		off += vlen
	}
	return pageImage{raw: raw[:off:off]}, nil
}

// record decodes the record at off of the validated image: its key, its
// value (capped, so an append to it copies) and the offset after it.
func (p pageImage) record(off int) (key, val []byte, next int) {
	klen := int(binary.BigEndian.Uint16(p.raw[off:]))
	key = p.raw[off+2 : off+2+klen]
	off += 2 + klen
	vlen := int(binary.BigEndian.Uint16(p.raw[off:]))
	next = off + 2 + vlen
	return key, p.raw[off+2 : next : next], next
}

// find returns the span [at, end) of key's record, or the empty span at
// the offset where it would be inserted.
func (p pageImage) find(key string) (at, end int, found bool) {
	for at = 2; at < len(p.raw); at = end {
		var k []byte
		k, _, end = p.record(at)
		if string(k) == key {
			return at, end, true
		}
		if string(k) > key {
			break
		}
	}
	return at, at, false
}

// get returns the record value, a slice of the image.
func (p pageImage) get(key string) ([]byte, bool) {
	at, _, found := p.find(key)
	if !found {
		return nil, false
	}
	_, v, _ := p.record(at)
	return v, true
}

// each calls fn on every record in key order until fn returns false,
// and reports whether the walk finished.
func (p pageImage) each(fn func(key string, val []byte) bool) bool {
	for off := 2; off < len(p.raw); {
		k, v, next := p.record(off)
		if !fn(string(k), v) {
			return false
		}
		off = next
	}
	return true
}

func (p *pageImage) set(key string, val []byte) { p.splice(key, val, true) }

func (p *pageImage) delete(key string) { p.splice(key, nil, false) }

// splice replaces key's record with val (keep) or with nothing, in a
// new image.
func (p *pageImage) splice(key string, val []byte, keep bool) {
	at, end, found := p.find(key)
	if !found && !keep {
		return
	}
	n := int(binary.BigEndian.Uint16(p.raw))
	if found {
		n--
	}
	size := len(p.raw) - (end - at)
	if keep {
		n++
		size += recordLen(key, val)
	}
	out := make([]byte, 2, size)
	binary.BigEndian.PutUint16(out, uint16(n))
	out = append(out, p.raw[2:at]...)
	if keep {
		out = binary.BigEndian.AppendUint16(out, uint16(len(key)))
		out = append(out, key...)
		out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
		out = append(out, val...)
	}
	p.raw = append(out, p.raw[end:]...)
}

// grows returns by how many bytes setting (keep) or deleting key would
// change the image's length.
func (p pageImage) grows(key string, val []byte, keep bool) int {
	at, end, _ := p.find(key)
	d := at - end
	if keep {
		d += recordLen(key, val)
	}
	return d
}

func recordLen(key string, val []byte) int { return 2 + len(key) + 2 + len(val) }

// encode returns the page's image, or ErrPageFull if it outgrew a block.
func (p pageImage) encode() ([]byte, error) {
	if len(p.raw) > dasd.BlockSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrPageFull, len(p.raw))
	}
	return p.raw, nil
}

// pageOf maps a key to a page number within a table of n pages.
func pageOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// pageName builds the global block name used with the group buffer
// pool ("T.<table>.<page>").
func pageName(table string, page int) string {
	return fmt.Sprintf("T.%s.%d", table, page)
}
