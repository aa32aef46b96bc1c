// Package cds implements couple data sets: the shared-disk state
// repositories of §3.2. A couple data set holds operating-system
// resource state (system status/heartbeats, group membership, policies)
// with:
//
//   - serialized access via hardware RESERVE with time-out logic that
//     breaks reserves held by faulty processors,
//   - duplexing across a primary and alternate dataset with hot
//     switching when the primary fails, and
//   - online re-duplexing onto a new alternate.
//
// Records are small key/value pairs; each value occupies one block, and
// the directory occupies a fixed extent at the front of the dataset.
package cds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"sysplex/internal/dasd"
	"sysplex/internal/vclock"
)

// Errors returned by Store operations.
var (
	ErrValueTooLarge = errors.New("cds: value exceeds one block")
	ErrFull          = errors.New("cds: couple data set full")
	ErrTimeout       = errors.New("cds: reserve timed out")
	ErrNoCopies      = errors.New("cds: all copies failed")
	ErrDirOverflow   = errors.New("cds: directory overflow")
	ErrChecksum      = errors.New("cds: record checksum mismatch (torn write)")
	ErrBadMagic      = errors.New("cds: directory magic not recognised")
)

const (
	dirBlocks = 4 // blocks reserved for the directory at the front
	maxValue  = dasd.BlockSize - 8
	dirSpace  = dirBlocks * dasd.BlockSize
	// magicV2 marks the directory layout, the only one: every entry
	// carries a CRC32 of its value and the directory itself is
	// CRC-trailered, so a torn write to either is detected on read and
	// falls back to the alternate copy. (0xC0DB1996 was an unchecksummed
	// layout no writer produces any more; it is rejected like any other
	// unknown magic.)
	magicV2 = 0xC0DB1997
)

// Options tune serialization behaviour.
type Options struct {
	// ReserveTimeout bounds how long Update waits for the reserve
	// before consulting StaleHolder/giving up. Zero means 2s.
	ReserveTimeout time.Duration
	// StaleHolder, if non-nil, reports whether the named system should
	// be treated as failed, allowing its reserve to be broken
	// immediately (the "special time-out logic to handle faulty
	// processors" of §3.2). Typically wired to XCF status monitoring.
	StaleHolder func(sys string) bool
}

// Store is a duplexed couple data set.
type Store struct {
	mu      sync.Mutex
	clock   vclock.Clock
	opts    Options
	primary *dasd.Dataset
	alt     *dasd.Dataset // nil when simplexed
	name    string

	switches int // hot switches performed
}

// New creates a Store over a primary and optional alternate dataset.
// Both datasets must have identical block counts when alt is non-nil.
func New(name string, clock vclock.Clock, primary, alt *dasd.Dataset, opts Options) (*Store, error) {
	if primary == nil {
		return nil, errors.New("cds: primary dataset required")
	}
	if alt != nil && alt.Blocks() != primary.Blocks() {
		return nil, errors.New("cds: primary and alternate sizes differ")
	}
	if primary.Blocks() <= dirBlocks {
		return nil, fmt.Errorf("cds: dataset %q too small", primary.Name())
	}
	if opts.ReserveTimeout == 0 {
		opts.ReserveTimeout = 2 * time.Second
	}
	if clock == nil {
		clock = vclock.Real()
	}
	return &Store{name: name, clock: clock, opts: opts, primary: primary, alt: alt}, nil
}

// Name returns the couple data set name.
func (s *Store) Name() string { return s.name }

// Switches reports how many hot switches have occurred.
func (s *Store) Switches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// Duplexed reports whether an alternate copy is active.
func (s *Store) Duplexed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alt != nil
}

// directory maps key -> (block, length). Serialized into the directory
// extent.
type directory struct {
	entries map[string]dirEntry
}

type dirEntry struct {
	block  uint32
	length uint32
	sum    uint32 // CRC32 of the value
}

// encode lays the directory out in its checksummed format:
// magic | count | {klen block length sum key}... | CRC32(everything before).
func (d *directory) encode() ([]byte, error) {
	keys := make([]string, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 8, 256)
	binary.BigEndian.PutUint32(buf[0:4], magicV2)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(keys)))
	for _, k := range keys {
		e := d.entries[k]
		var rec [14]byte
		binary.BigEndian.PutUint16(rec[0:2], uint16(len(k)))
		binary.BigEndian.PutUint32(rec[2:6], e.block)
		binary.BigEndian.PutUint32(rec[6:10], e.length)
		binary.BigEndian.PutUint32(rec[10:14], e.sum)
		buf = append(buf, rec[:]...)
		buf = append(buf, k...)
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, trailer[:]...)
	if len(buf) > dirSpace {
		return nil, ErrDirOverflow
	}
	return buf, nil
}

func decodeDirectory(raw []byte) (*directory, error) {
	d := &directory{entries: make(map[string]dirEntry)}
	if len(raw) < 8 {
		return d, nil
	}
	switch magic := binary.BigEndian.Uint32(raw[0:4]); magic {
	case magicV2:
	case 0:
		return d, nil // never formatted: empty store
	default:
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	const recSize = 14
	n := binary.BigEndian.Uint32(raw[4:8])
	off := 8
	for i := uint32(0); i < n; i++ {
		if off+recSize > len(raw) {
			return nil, errors.New("cds: truncated directory")
		}
		klen := int(binary.BigEndian.Uint16(raw[off : off+2]))
		blk := binary.BigEndian.Uint32(raw[off+2 : off+6])
		vlen := binary.BigEndian.Uint32(raw[off+6 : off+10])
		sum := binary.BigEndian.Uint32(raw[off+10 : off+14])
		off += recSize
		if off+klen > len(raw) {
			return nil, errors.New("cds: truncated directory key")
		}
		if vlen > maxValue {
			return nil, fmt.Errorf("cds: directory entry length %d exceeds block", vlen)
		}
		key := string(raw[off : off+klen])
		off += klen
		d.entries[key] = dirEntry{block: blk, length: vlen, sum: sum}
	}
	if off+4 > len(raw) {
		return nil, errors.New("cds: directory trailer missing")
	}
	want := binary.BigEndian.Uint32(raw[off : off+4])
	if crc32.ChecksumIEEE(raw[:off]) != want {
		return nil, fmt.Errorf("%w: directory", ErrChecksum)
	}
	return d, nil
}

// View is the read snapshot handed to Update closures.
type View struct {
	dir     *directory
	store   *Store
	sys     string
	changed map[string][]byte // staged writes (nil slice = delete)
}

// Get returns the value for key and whether it exists, honoring writes
// staged earlier in the same Update.
func (v *View) Get(key string) ([]byte, bool, error) {
	if val, ok := v.changed[key]; ok {
		if val == nil {
			return nil, false, nil
		}
		out := make([]byte, len(val))
		copy(out, val)
		return out, true, nil
	}
	e, ok := v.dir.entries[key]
	if !ok {
		return nil, false, nil
	}
	raw, err := v.store.readValue(v.sys, e)
	if err != nil {
		return nil, false, err
	}
	out := make([]byte, e.length)
	copy(out, raw[:e.length])
	return out, true, nil
}

// Set stages a write of key=val (val must fit one block).
func (v *View) Set(key string, val []byte) error {
	if len(val) > maxValue {
		return ErrValueTooLarge
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	v.changed[key] = cp
	return nil
}

// Delete stages removal of key.
func (v *View) Delete(key string) { v.changed[key] = nil }

// Keys returns all keys visible in this view (committed + staged),
// sorted.
func (v *View) Keys() []string {
	set := make(map[string]bool)
	for k := range v.dir.entries {
		set[k] = true
	}
	for k, val := range v.changed {
		if val == nil {
			delete(set, k)
		} else {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Read performs a serialized read of a single key on behalf of sys.
func (s *Store) Read(sys, key string) ([]byte, bool, error) {
	var val []byte
	var ok bool
	err := s.Update(sys, func(v *View) error {
		var err error
		val, ok, err = v.Get(key)
		return err
	})
	return val, ok, err
}

// Keys performs a serialized listing on behalf of sys.
func (s *Store) Keys(sys string) ([]string, error) {
	var keys []string
	err := s.Update(sys, func(v *View) error {
		keys = v.Keys()
		return nil
	})
	return keys, err
}

// Update runs fn under the couple data set serialization (hardware
// reserve on the primary's volume) and atomically commits staged
// changes to all copies. If fn returns an error nothing is written.
func (s *Store) Update(sys string, fn func(*View) error) error {
	vol, err := s.acquire(sys)
	if err != nil {
		return err
	}
	defer vol.Release(sys)

	dir, dirErr := s.loadDirectory(sys)
	if dirErr != nil {
		return dirErr
	}
	view := &View{dir: dir, store: s, sys: sys, changed: make(map[string][]byte)}
	if err := fn(view); err != nil {
		return err
	}
	if len(view.changed) == 0 {
		return nil
	}
	return s.commit(sys, dir, view.changed)
}

// acquire obtains the reserve with retry, break-on-stale-holder, and
// timeout semantics. It returns the reserved volume so the caller
// releases the same device even if a hot switch happens meanwhile.
func (s *Store) acquire(sys string) (*dasd.Volume, error) {
	deadline := s.clock.Now().Add(s.opts.ReserveTimeout)
	for {
		vol := s.primaryVolume()
		err := vol.Reserve(sys)
		if err == nil {
			return vol, nil
		}
		if errors.Is(err, dasd.ErrBroken) {
			if !s.Duplexed() {
				return nil, err
			}
			s.hotSwitch()
			continue
		}
		if errors.Is(err, dasd.ErrReserved) && s.opts.StaleHolder != nil {
			if h := vol.ReserveHolder(); h != "" && h != sys && s.opts.StaleHolder(h) {
				vol.BreakReserve(h)
				continue
			}
		}
		if errors.Is(err, dasd.ErrFenced) {
			return nil, err
		}
		if !s.clock.Now().Before(deadline) {
			return nil, fmt.Errorf("%w: holder %s", ErrTimeout, vol.ReserveHolder())
		}
		s.clock.Sleep(time.Millisecond) // between reserve attempts
	}
}

func (s *Store) primaryVolume() *dasd.Volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary.Volume()
}

func (s *Store) copies() (*dasd.Dataset, *dasd.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary, s.alt
}

// readBlock reads from the primary, hot-switching to the alternate on
// failure.
func (s *Store) readBlock(sys string, blk int) ([]byte, error) {
	pri, alt := s.copies()
	raw, err := pri.Read(sys, blk)
	if err == nil {
		return raw, nil
	}
	if alt == nil {
		return nil, err
	}
	s.hotSwitch()
	pri, _ = s.copies()
	return pri.Read(sys, blk)
}

// readValue reads a record's block and verifies the directory's CRC of
// it. A dasd-level failure or a checksum mismatch (a torn value write)
// falls back to the alternate copy via hot switch, the same path a
// broken device takes.
func (s *Store) readValue(sys string, e dirEntry) ([]byte, error) {
	pri, alt := s.copies()
	raw, err := readVerified(pri, sys, e)
	if err == nil {
		return raw, nil
	}
	if alt == nil {
		return nil, err
	}
	s.hotSwitch()
	pri, _ = s.copies()
	return readVerified(pri, sys, e)
}

func readVerified(ds *dasd.Dataset, sys string, e dirEntry) ([]byte, error) {
	raw, err := ds.Read(sys, int(e.block))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(raw[:e.length]) != e.sum {
		return nil, fmt.Errorf("%w: block %d of %s", ErrChecksum, e.block, ds.Name())
	}
	return raw, nil
}

// writeBlock writes to every active copy. A primary failure triggers a
// hot switch; an alternate failure drops to simplex mode.
func (s *Store) writeBlock(sys string, blk int, data []byte) error {
	pri, alt := s.copies()
	priErr := pri.Write(sys, blk, data)
	var altErr error
	if alt != nil {
		altErr = alt.Write(sys, blk, data)
	}
	switch {
	case priErr == nil && altErr == nil:
		return nil
	case priErr != nil && alt != nil && altErr == nil:
		s.hotSwitch()
		return nil
	case priErr == nil && altErr != nil:
		s.dropAlternate()
		return nil
	default:
		if alt == nil {
			return priErr
		}
		return ErrNoCopies
	}
}

// hotSwitch promotes the alternate to primary.
func (s *Store) hotSwitch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.alt == nil {
		return
	}
	s.primary = s.alt
	s.alt = nil
	s.switches++
}

func (s *Store) dropAlternate() {
	s.mu.Lock()
	s.alt = nil
	s.mu.Unlock()
}

// SetAlternate re-duplexes the store onto ds by copying every block of
// the primary, then activating ds as the alternate ("online add of a
// new alternate").
func (s *Store) SetAlternate(sys string, ds *dasd.Dataset) error {
	pri, _ := s.copies()
	if ds.Blocks() != pri.Blocks() {
		return errors.New("cds: alternate size differs from primary")
	}
	vol, err := s.acquire(sys)
	if err != nil {
		return err
	}
	defer vol.Release(sys)
	for blk := 0; blk < pri.Blocks(); blk++ {
		raw, err := pri.Read(sys, blk)
		if err != nil {
			return err
		}
		if err := ds.Write(sys, blk, raw); err != nil {
			return err
		}
	}
	if err := ds.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	s.alt = ds
	s.mu.Unlock()
	return nil
}

// loadDirectory reads and decodes the directory extent. A decode
// failure (torn directory write caught by the trailer CRC) falls back
// to the alternate copy, mirroring readValue.
func (s *Store) loadDirectory(sys string) (*directory, error) {
	raw, err := s.readDirRaw(sys)
	if err != nil {
		return nil, err
	}
	dir, derr := decodeDirectory(raw)
	if derr == nil {
		return dir, nil
	}
	if !s.Duplexed() {
		return nil, derr
	}
	s.hotSwitch()
	raw, err = s.readDirRaw(sys)
	if err != nil {
		return nil, err
	}
	return decodeDirectory(raw)
}

func (s *Store) readDirRaw(sys string) ([]byte, error) {
	var raw []byte
	for blk := 0; blk < dirBlocks; blk++ {
		b, err := s.readBlock(sys, blk)
		if err != nil {
			return nil, err
		}
		raw = append(raw, b...)
	}
	return raw, nil
}

func (s *Store) storeDirectory(sys string, dir *directory) error {
	raw, err := dir.encode()
	if err != nil {
		return err
	}
	padded := make([]byte, dirSpace)
	copy(padded, raw)
	for blk := 0; blk < dirBlocks; blk++ {
		if err := s.writeBlock(sys, blk, padded[blk*dasd.BlockSize:(blk+1)*dasd.BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// commit applies staged changes: assigns blocks to new keys, writes
// values, syncs, then writes the directory and syncs again.
// Directory-last plus the sync barrier between values and directory
// gives crash atomicity at the granularity of whole Update calls: a
// crash anywhere leaves either the old directory over old values or
// the new directory over durable new values (syncs are no-ops on an
// in-memory farm, where the process is the failure domain anyway).
func (s *Store) commit(sys string, dir *directory, changed map[string][]byte) error {
	pri, _ := s.copies()
	used := make(map[uint32]bool)
	for _, e := range dir.entries {
		used[e.block] = true
	}
	// Blocks freed by deletes in THIS commit are reused only as a last
	// resort: if the commit crashes before the directory write, the
	// still-durable old directory maps the deleted key at the reused
	// block, and the new bytes under it read back as a checksum error
	// instead of the key's old value. Preferring never-used blocks
	// keeps that window shut whenever space allows.
	var freed []uint32
	alloc := func() (uint32, error) {
		for blk := uint32(dirBlocks); blk < uint32(pri.Blocks()); blk++ {
			if !used[blk] {
				used[blk] = true
				return blk, nil
			}
		}
		if len(freed) > 0 {
			blk := freed[0]
			freed = freed[1:]
			return blk, nil
		}
		return 0, ErrFull
	}
	keys := make([]string, 0, len(changed))
	for k := range changed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Deletes first, so their last-resort blocks are visible to every
	// set in this commit regardless of key order.
	for _, key := range keys {
		if changed[key] == nil {
			if e, ok := dir.entries[key]; ok {
				freed = append(freed, e.block)
				delete(dir.entries, key)
			}
		}
	}
	for _, key := range keys {
		val := changed[key]
		if val == nil {
			continue
		}
		e, ok := dir.entries[key]
		if !ok {
			blk, err := alloc()
			if err != nil {
				return err
			}
			e = dirEntry{block: blk}
		}
		e.length = uint32(len(val))
		e.sum = crc32.ChecksumIEEE(val)
		if err := s.writeBlock(sys, int(e.block), val); err != nil {
			return err
		}
		dir.entries[key] = e
	}
	if err := s.syncCopies(); err != nil {
		return err
	}
	if err := s.storeDirectory(sys, dir); err != nil {
		return err
	}
	return s.syncCopies()
}

// syncCopies flushes both copies' volumes. A primary sync failure hot
// switches (the device's state is unknown, like a broken device); an
// alternate failure drops to simplex.
func (s *Store) syncCopies() error {
	pri, alt := s.copies()
	priErr := pri.Sync()
	var altErr error
	if alt != nil {
		altErr = alt.Sync()
	}
	switch {
	case priErr == nil && altErr == nil:
		return nil
	case priErr != nil && alt != nil && altErr == nil:
		s.hotSwitch()
		return nil
	case priErr == nil && altErr != nil:
		s.dropAlternate()
		return nil
	default:
		if alt == nil {
			return priErr
		}
		return ErrNoCopies
	}
}
