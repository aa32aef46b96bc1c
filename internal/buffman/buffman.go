// Package buffman implements a DB2-style group buffer pool manager on
// top of the CF cache structure (§3.3.2). Each system's Pool keeps a
// local buffer pool whose per-frame validity is tracked in the local
// bit vector the CF flips on cross-invalidation:
//
//   - a page read first tests the local validity bit (a CPU-local
//     operation, no CF access); only an invalid or absent frame goes to
//     the CF to re-register, where it may be refreshed at high speed
//     from the global cache instead of DASD;
//   - a page update is written through to the CF (store-in: the commit
//     does not wait for DASD), which cross-invalidates all other
//     registered copies before returning;
//   - changed pages are lazily cast out to DASD by whichever system
//     runs castout.
package buffman

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sysplex/internal/cf"
)

// Errors returned by the pool.
var (
	ErrPoolClosed = errors.New("buffman: pool closed")
	ErrNoFrames   = errors.New("buffman: no evictable frame")
)

// PageReader fetches a page image from DASD.
type PageReader func(name string) ([]byte, error)

// PageWriter writes a page image to DASD (castout).
type PageWriter func(name string, data []byte) error

// Stats counts pool activity.
type Stats struct {
	LocalHits   int64 // validity bit test succeeded, no CF access
	GlobalHits  int64 // refreshed from the CF global cache
	DasdReads   int64 // had to go to disk
	Writes      int64 // pages written through to the CF
	Evictions   int64
	Castouts    int64
	Invalidated int64 // local frames found invalidated by peers
}

// Pool is one system's local buffer pool connected to a group buffer
// pool (CF cache structure).
type Pool struct {
	sys    string
	cs     cf.Cache
	vec    *cf.BitVector
	read   PageReader
	write  PageWriter
	frames []frame
	byName map[string]int

	mu     sync.Mutex
	tick   int64
	stats  Stats
	closed bool
}

type frame struct {
	name    string
	data    []byte
	lastUse int64
	used    bool
}

// NewPool creates a pool with n local frames, connects it to the cache
// structure, and registers the local bit vector with the CF.
func NewPool(ctx context.Context, sys string, cs cf.Cache, n int, read PageReader, write PageWriter) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("buffman: pool needs > 0 frames")
	}
	p := &Pool{
		sys:    sys,
		cs:     cs,
		vec:    cf.NewBitVector(n),
		read:   read,
		write:  write,
		frames: make([]frame, n),
		byName: make(map[string]int),
	}
	if err := cs.Connect(ctx, sys, p.vec); err != nil {
		return nil, err
	}
	return p, nil
}

// System returns the owning system name.
func (p *Pool) System() string { return p.sys }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close detaches the pool from the group buffer pool.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// GetPage returns the current image of a page. The caller must hold a
// lock covering the page (the buffer manager provides coherency, not
// serialization — exactly the division of labour in Figure 2).
func (p *Pool) GetPage(ctx context.Context, name string) ([]byte, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if idx, ok := p.byName[name]; ok {
		// Local coherency check: the bit-vector test, no CF involvement.
		if p.vec.Test(idx) {
			p.stats.LocalHits++
			data := append([]byte(nil), p.frames[idx].data...)
			p.frames[idx].lastUse = p.bumpTick()
			p.mu.Unlock()
			return data, nil
		}
		// Peer invalidated our copy: re-register with the CF.
		p.stats.Invalidated++
		p.mu.Unlock()
		return p.refresh(ctx, name, idx)
	}
	idx, err := p.allocFrameLocked(ctx, name)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	return p.refresh(ctx, name, idx)
}

// refresh re-registers interest and fills the frame from the global
// cache or DASD.
func (p *Pool) refresh(ctx context.Context, name string, idx int) ([]byte, error) {
	res, err := p.cs.ReadAndRegister(ctx, p.sys, name, idx)
	if err != nil {
		return nil, err
	}
	var data []byte
	if res.Hit {
		data = res.Data
		p.mu.Lock()
		p.stats.GlobalHits++
		p.mu.Unlock()
	} else {
		data, err = p.read(name)
		if err != nil {
			// Best-effort: the read error is the one to surface.
			_ = p.cs.Unregister(ctx, p.sys, name)
			return nil, err
		}
		p.mu.Lock()
		p.stats.DasdReads++
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.frames[idx] = frame{name: name, data: append([]byte(nil), data...), lastUse: p.bumpTick(), used: true}
	p.byName[name] = idx
	p.mu.Unlock()
	return append([]byte(nil), data...), nil
}

// WritePage commits a new page image: the local frame is updated and
// the image is written through to the group buffer pool, which
// cross-invalidates every other system's copy before returning. The
// caller must hold an exclusive lock on the page.
func (p *Pool) WritePage(ctx context.Context, name string, data []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	idx, ok := p.byName[name]
	if !ok {
		var err error
		idx, err = p.allocFrameLocked(ctx, name)
		if err != nil {
			p.mu.Unlock()
			return err
		}
		p.byName[name] = idx
	}
	p.frames[idx] = frame{name: name, data: append([]byte(nil), data...), lastUse: p.bumpTick(), used: true}
	p.stats.Writes++
	p.mu.Unlock()
	err := p.cs.WriteAndInvalidate(ctx, p.sys, name, data, true, true, idx)
	if err != nil {
		// The group buffer pool rejected the write: the local frame
		// must not keep serving data the caller will treat as not
		// committed. Drop it so the next read refetches the CF's
		// version.
		p.mu.Lock()
		if i, ok := p.byName[name]; ok && i == idx {
			delete(p.byName, name)
			p.frames[i] = frame{}
			p.vec.Clear(i)
		}
		p.mu.Unlock()
	}
	return err
}

// batchWriteBytes caps the payload of one group-write chunk so a batch
// of pages stays comfortably under the cflink frame limit even with
// per-command envelope overhead.
const batchWriteBytes = 256 << 10

// WritePages writes a group of pages through the group buffer pool as
// CF batches: each chunk crosses the link once, and the CF performs the
// registered-copy cross-invalidate fan-out for every page in the chunk
// during that single traversal. Pages are written in sorted-name order;
// a page whose write is rejected has its local frame dropped, exactly
// as WritePage does, and the first such error is returned after the
// whole group has been attempted.
func (p *Pool) WritePages(ctx context.Context, pages map[string][]byte) error {
	if len(pages) == 0 {
		return nil
	}
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)

	// Install the local frames first, mirroring WritePage's ordering:
	// frame then CF write, with rollback on rejection.
	idxs := make(map[string]int, len(names))
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	for _, name := range names {
		data := pages[name]
		idx, ok := p.byName[name]
		if !ok {
			var err error
			idx, err = p.allocFrameLocked(ctx, name)
			if err != nil {
				p.mu.Unlock()
				p.dropFrames(idxs)
				return err
			}
			p.byName[name] = idx
		}
		p.frames[idx] = frame{name: name, data: append([]byte(nil), data...), lastUse: p.bumpTick(), used: true}
		p.stats.Writes++
		idxs[name] = idx
	}
	p.mu.Unlock()

	var firstErr error
	for start := 0; start < len(names); start += 1 {
		// Build the next chunk bounded by both op count and bytes.
		var (
			cmds  []cf.Cmd
			bytes int
			end   = start
		)
		for end < len(names) && len(cmds) < cf.MaxBatchOps {
			data := pages[names[end]]
			if len(cmds) > 0 && bytes+len(data) > batchWriteBytes {
				break
			}
			cmds = append(cmds, cf.Cmd{Kind: cf.CmdCacheWrite, Conn: p.sys, Name: names[end], Data: data, Cache: true, Changed: true, VecIdx: idxs[names[end]]})
			bytes += len(data)
			end++
		}
		reply, err := p.cs.Batch(ctx, cmds)
		if err != nil {
			// Batch-level failure: none of the chunk's writes took
			// effect; drop every frame the chunk covered.
			chunk := make(map[string]int, end-start)
			for _, name := range names[start:end] {
				chunk[name] = idxs[name]
			}
			p.dropFrames(chunk)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			for i, serr := range reply.Errs {
				if serr == nil {
					continue
				}
				name := names[start+i]
				p.dropFrames(map[string]int{name: idxs[name]})
				if firstErr == nil {
					firstErr = serr
				}
			}
		}
		start = end - 1
	}
	return firstErr
}

// dropFrames discards the named local frames if they still map to the
// given indices — the group buffer pool rejected their writes, so they
// must not keep serving data the caller will treat as not committed.
func (p *Pool) dropFrames(idxs map[string]int) {
	if len(idxs) == 0 {
		return
	}
	p.mu.Lock()
	for name, idx := range idxs {
		if i, ok := p.byName[name]; ok && i == idx {
			delete(p.byName, name)
			p.frames[i] = frame{}
			p.vec.Clear(i)
		}
	}
	p.mu.Unlock()
}

// CastoutOnce casts out up to max changed pages (all if max <= 0) from
// the group buffer pool to DASD. Any system may run castout.
func (p *Pool) CastoutOnce(ctx context.Context, max int) (int, error) {
	names := p.cs.ChangedBlocks()
	n := 0
	for _, name := range names {
		if max > 0 && n >= max {
			break
		}
		data, ver, err := p.cs.CastoutBegin(ctx, p.sys, name)
		if err != nil {
			continue // raced with another castout owner
		}
		if err := p.write(name, data); err != nil {
			// Best-effort: keep the page changed; the write error wins.
			_ = p.cs.CastoutEnd(ctx, p.sys, name, ver-1)
			return n, err
		}
		if err := p.cs.CastoutEnd(ctx, p.sys, name, ver); err != nil {
			return n, err
		}
		n++
	}
	p.mu.Lock()
	p.stats.Castouts += int64(n)
	p.mu.Unlock()
	return n, nil
}

// Invalidate drops the local frame for a page (local cache management;
// peers are unaffected).
func (p *Pool) Invalidate(ctx context.Context, name string) {
	p.mu.Lock()
	idx, ok := p.byName[name]
	if ok {
		delete(p.byName, name)
		p.frames[idx] = frame{}
		p.vec.Clear(idx)
	}
	p.mu.Unlock()
	if ok {
		// The local frame is already gone; a failed unregister only
		// costs a spurious cross-invalidate later.
		_ = p.cs.Unregister(ctx, p.sys, name)
	}
}

// allocFrameLocked finds a free frame or evicts the least recently used
// one. Caller holds p.mu; the frame index is reserved for the caller.
func (p *Pool) allocFrameLocked(ctx context.Context, name string) (int, error) {
	// Free frame?
	for i := range p.frames {
		if !p.frames[i].used {
			p.frames[i] = frame{name: name, lastUse: p.bumpTick(), used: true}
			p.byName[name] = i
			return i, nil
		}
	}
	// Evict LRU.
	victim := -1
	var oldest int64
	for i := range p.frames {
		if victim == -1 || p.frames[i].lastUse < oldest {
			victim = i
			oldest = p.frames[i].lastUse
		}
	}
	if victim == -1 {
		return 0, ErrNoFrames
	}
	old := p.frames[victim].name
	delete(p.byName, old)
	p.frames[victim] = frame{name: name, lastUse: p.bumpTick(), used: true}
	p.byName[name] = victim
	p.vec.Clear(victim)
	p.stats.Evictions++
	// The CF never calls back into the pool (it flips vector bits
	// directly), so its mutex is a leaf and this nested call is safe.
	// A failed unregister only costs a spurious cross-invalidate.
	_ = p.cs.Unregister(ctx, p.sys, old)
	return victim, nil
}

func (p *Pool) bumpTick() int64 {
	p.tick++
	return p.tick
}
