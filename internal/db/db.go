// Package db implements a multi-system data-sharing database manager in
// the mould of DB2/IMS-DB data sharing (§3.3, §5.2). Every system runs
// an Engine instance against the same shared tables:
//
//   - record-level 2PL through the IRLM-style lock manager (CF lock
//     structure underneath);
//   - page coherency and store-in committed-page caching through the
//     group buffer pool (CF cache structure underneath);
//   - a redo-only write-ahead log any peer can read for recovery of a
//     failed system while that system's retained locks protect the
//     affected records: one sysplex-merged System Logger log stream,
//     in CF interim storage with DASD offload, where each transaction's
//     COMMIT record carries its after images, and the retained locks,
//     which name their transactions, say which images a peer redoes;
//   - page-range scans supporting the decision-support "split a query
//     into sub-queries" pattern of §2.3.
package db

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sysplex/internal/buffman"
	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
	"sysplex/internal/vclock"
	"sysplex/internal/wire"
)

// Errors returned by the engine.
var (
	ErrTxDone      = errors.New("db: transaction already committed or aborted")
	ErrNoTable     = errors.New("db: table not opened")
	ErrValueTooBig = errors.New("db: record too large")
)

// Log record kinds: a LogRecord's Kind byte.
//
// lintwire: table logkinds
const (
	recUpdate byte = 1 // after images that did not fit the COMMIT record
	recCommit byte = 2 // the commit point, with the remaining after images
	recEnd    byte = 3 // retired: logged after the apply by older trees; redo skips it
)

// LogRecord is one write-ahead-log entry. The log is redo-only: changes
// reach pages only after COMMIT, so a record carries after images and
// no before images.
type LogRecord struct {
	Tx     string
	Sys    string // writing system (the stream merges all systems)
	Kind   byte
	Images []Image // COMMIT and UPDATE only
}

// Image is the after image of one record-level change.
type Image struct {
	Table  string
	Key    string
	After  []byte
	Delete bool
}

// A log record's image on the stream: layout byte, Tx, Sys, Kind, the
// image count, then each image's fields in declaration order, all as
// wire fields. Layout 1 carried one change per record with its before
// image.
const logLayout = 2

// size bounds the encoded length of a record with no images.
func (r *LogRecord) size() int {
	return 2 + fieldLen(len(r.Tx)) + fieldLen(len(r.Sys)) + binary.MaxVarintLen16
}

// size is the encoded length of the image.
func (im *Image) size() int {
	return fieldLen(len(im.Table)) + fieldLen(len(im.Key)) + fieldLen(len(im.After)) + 1
}

// fieldLen is the encoded length of an n-byte wire string or block.
func fieldLen(n int) int { return n + (bits.Len64(uint64(n)|1)+6)/7 }

func (r *LogRecord) encode() []byte {
	size := r.size()
	for i := range r.Images {
		size += r.Images[i].size()
	}
	e := wire.Record(logLayout, size)
	e.Str(r.Tx)
	e.Str(r.Sys)
	e.U8(r.Kind)
	e.Uvarint(uint64(len(r.Images)))
	for _, im := range r.Images {
		e.Str(im.Table)
		e.Str(im.Key)
		e.Bytes(im.After)
		e.Bool(im.Delete)
	}
	return e.Buf
}

func decodeLogRecord(raw []byte) (LogRecord, error) {
	d := wire.OpenRecord(raw, logLayout)
	r := LogRecord{Tx: d.Str(), Sys: d.Str(), Kind: d.U8()}
	if n := d.Count(uint64(len(raw))); n > 0 {
		r.Images = make([]Image, n)
		for i := range r.Images {
			r.Images[i] = Image{Table: d.Str(), Key: d.Str(), After: d.Bytes(), Delete: d.Bool()}
		}
	}
	return r, d.Finish()
}

// Config wires an Engine to its substrates.
type Config struct {
	// Name is the database group name shared by all instances (e.g.
	// "DBP1"); it scopes structure and dataset names.
	Name string
	// System is this instance's system name.
	System string
	// Farm is the shared DASD farm.
	Farm *dasd.Farm
	// Volume names the volume for table spaces and logs.
	Volume string
	// Facility is the coupling facility holding the group buffer pool.
	Facility cf.Front
	// Locks is this system's lock manager.
	Locks *lockmgr.Manager
	// Clock defaults to the real clock.
	Clock vclock.Clock
	// Logger is this system's System Logger instance: the write-ahead
	// log is one log stream, DB.<Name>.SYNC, carrying every system's
	// COMMIT records with their after images, and recovery browses it.
	Logger *logr.Manager
	// PoolFrames sizes the local buffer pool (default 256).
	PoolFrames int
	// LockTimeout bounds lock waits (default 5s).
	LockTimeout time.Duration
}

// Stats counts engine activity.
type Stats struct {
	Begins    int64
	Commits   int64
	Aborts    int64
	Reads     int64
	Writes    int64
	Recovered int64 // redo records applied on behalf of failed peers
}

// Engine is one system's database manager instance.
type Engine struct {
	name    string
	sys     string
	farm    *dasd.Farm
	volume  string
	fac     cf.Front
	locks   *lockmgr.Manager
	clock   vclock.Clock
	pool    *buffman.Pool
	logger  *logr.Manager
	sync    *logr.Stream // the write-ahead log
	timeout time.Duration

	// txPrefix opens every transaction ID: the system name and a
	// sysplex timestamp taken at Open. The timestamp follows every
	// record already on the log, so no ID repeats one an earlier
	// incarnation logged, and a retained lock's owner names one COMMIT.
	txPrefix string

	mu     sync.Mutex
	tables map[string]*tableMeta
	txSeq  int64
	stats  Stats
}

type tableMeta struct {
	name  string
	pages int
	ds    *dasd.Dataset
}

// Open creates (or attaches to) the database group for one system.
func Open(ctx context.Context, cfg Config) (*Engine, error) {
	if cfg.Name == "" || cfg.System == "" || cfg.Farm == nil || cfg.Facility == nil || cfg.Locks == nil || cfg.Logger == nil {
		return nil, errors.New("db: incomplete config")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.PoolFrames == 0 {
		cfg.PoolFrames = 256
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 5 * time.Second
	}
	e := &Engine{
		name:     cfg.Name,
		sys:      cfg.System,
		farm:     cfg.Farm,
		volume:   cfg.Volume,
		fac:      cfg.Facility,
		locks:    cfg.Locks,
		clock:    cfg.Clock,
		logger:   cfg.Logger,
		timeout:  cfg.LockTimeout,
		txPrefix: cfg.System + "-" + strconv.FormatInt(cfg.Logger.Stamp().UnixNano(), 36) + "-",
		tables:   make(map[string]*tableMeta),
	}
	// Group buffer pool: first instance allocates, others attach.
	gbpName := "GBP." + cfg.Name
	cs, err := cfg.Facility.CacheStructure(gbpName)
	if err != nil {
		cs, err = cfg.Facility.AllocateCacheStructure(gbpName, 4096)
		if err != nil {
			// Lost an allocation race: attach.
			cs, err = cfg.Facility.CacheStructure(gbpName)
			if err != nil {
				return nil, err
			}
		}
	}
	pool, err := buffman.NewPool(ctx, cfg.System, cs, cfg.PoolFrames, e.readPage, e.writePage)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	// One stream carries the log of every transaction in the group.
	s, err := cfg.Logger.Connect(ctx, logr.StreamSpec{Name: syncStreamName(cfg.Name)})
	if err != nil {
		return nil, err
	}
	e.sync = s
	return e, nil
}

// syncStreamName names the write-ahead log stream.
func syncStreamName(db string) string { return "DB." + db + ".SYNC" }

// System returns the owning system name.
func (e *Engine) System() string { return e.sys }

// Name returns the database group name.
func (e *Engine) Name() string { return e.name }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// PoolStats exposes the buffer pool counters.
func (e *Engine) PoolStats() buffman.Stats { return e.pool.Stats() }

// OpenTable opens (allocating on first use anywhere in the sysplex) a
// table with a fixed number of pages. Every instance must open a table
// with the same page count before using it.
func (e *Engine) OpenTable(ctx context.Context, name string, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("db: table %q needs > 0 pages", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[name]; ok {
		return nil
	}
	dsName := "TS." + e.name + "." + name
	ds, err := e.farm.Dataset(dsName)
	if err != nil {
		ds, err = e.farm.Allocate(e.volume, dsName, pages)
		if err != nil {
			if ds2, err2 := e.farm.Dataset(dsName); err2 == nil {
				ds = ds2
			} else {
				return err
			}
		}
	}
	if ds.Blocks() != pages {
		return fmt.Errorf("db: table %q opened with %d pages but exists with %d", name, pages, ds.Blocks())
	}
	e.tables[name] = &tableMeta{name: name, pages: pages, ds: ds}
	return nil
}

// TablePages returns the page count of an opened table.
func (e *Engine) TablePages(name string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t.pages, nil
}

// readPage resolves a group-buffer-pool page name to a DASD read.
func (e *Engine) readPage(name string) ([]byte, error) {
	t, page, err := e.resolve(name)
	if err != nil {
		return nil, err
	}
	return t.ds.Read(e.sys, page)
}

// writePage resolves a page name for castout to DASD.
func (e *Engine) writePage(name string, data []byte) error {
	t, page, err := e.resolve(name)
	if err != nil {
		return err
	}
	return t.ds.Write(e.sys, page, data)
}

func (e *Engine) resolve(name string) (*tableMeta, int, error) {
	parts := strings.Split(name, ".")
	if len(parts) < 3 || parts[0] != "T" {
		return nil, 0, fmt.Errorf("db: bad page name %q", name)
	}
	table := strings.Join(parts[1:len(parts)-1], ".")
	var page int
	if _, err := fmt.Sscanf(parts[len(parts)-1], "%d", &page); err != nil {
		return nil, 0, fmt.Errorf("db: bad page name %q", name)
	}
	e.mu.Lock()
	t, ok := e.tables[table]
	e.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return t, page, nil
}

// CastoutOnce casts out up to max changed pages to DASD.
func (e *Engine) CastoutOnce(ctx context.Context, max int) (int, error) {
	return e.pool.CastoutOnce(ctx, max)
}

// InvalidateLocal drops the local buffer for one page of a table, so
// the next access must consult the CF (used by cache ablations and
// local buffer-pool management).
func (e *Engine) InvalidateLocal(ctx context.Context, table string, page int) {
	e.pool.Invalidate(ctx, pageName(table, page))
}

// lock resource name helpers.
func (e *Engine) recordResource(table, key string) string {
	return "R." + e.name + "." + table + "." + key
}

func (e *Engine) pageResource(table string, page int) string {
	return "P." + e.name + "." + table + "." + strconv.Itoa(page)
}

// Tx is a database transaction (strict two-phase locking; changes are
// applied at commit after the log force).
type Tx struct {
	e      *Engine
	ctx    context.Context
	id     string
	staged []Image
	locks  map[string]bool
	done   bool
}

// Begin starts a transaction. The context governs every CF command the
// transaction issues (lock requests, page fetches, log writes) until
// Commit reaches its commit point; it is stored on the Tx — mirroring
// database/sql.BeginTx — so application Programs keep their
// ctx-free signature.
func (e *Engine) Begin(ctx context.Context) *Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	e.txSeq++
	id := fmt.Sprintf("%s%06d", e.txPrefix, e.txSeq)
	e.stats.Begins++
	e.mu.Unlock()
	return &Tx{e: e, ctx: ctx, id: id, locks: map[string]bool{}}
}

// ID returns the transaction identifier.
func (t *Tx) ID() string { return t.id }

func (t *Tx) lock(resource string, mode lockmgr.Mode) error {
	if err := t.e.locks.Lock(t.ctx, t.id, resource, mode, t.e.timeout); err != nil {
		return err
	}
	t.locks[resource] = true
	return nil
}

// stagedValue consults this transaction's own staged writes.
func (t *Tx) stagedValue(table, key string) ([]byte, bool, bool) {
	for i := len(t.staged) - 1; i >= 0; i-- {
		c := t.staged[i]
		if c.Table == table && c.Key == key {
			if c.Delete {
				return nil, false, true
			}
			return append([]byte(nil), c.After...), true, true
		}
	}
	return nil, false, false
}

// Get reads a record under a share lock (read committed + repeatable:
// locks are held to commit).
//
// lintctx: the transaction's context is captured at Begin
// (database/sql idiom); every Tx method runs under it.
func (t *Tx) Get(table, key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	if v, ok, hit := t.stagedValue(table, key); hit {
		return v, ok, nil
	}
	meta, err := t.e.table(table)
	if err != nil {
		return nil, false, err
	}
	if err := t.lock(t.e.recordResource(table, key), lockmgr.Share); err != nil {
		return nil, false, err
	}
	img, err := t.e.fetchPage(t.ctx, table, pageOf(key, meta.pages))
	if err != nil {
		return nil, false, err
	}
	t.e.bump(func(s *Stats) { s.Reads++ })
	v, ok := img.get(key)
	return v, ok, nil
}

// Put stages an insert or update under an exclusive lock. Page
// occupancy is validated here, before anything is logged, so a commit
// can never discover an unapplicable change after its COMMIT record is
// externalized. (A safety margin absorbs concurrent growth of the page
// by other records between Put and apply.)
func (t *Tx) Put(table, key string, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if len(key)+len(value) > dasd.BlockSize/2 {
		return ErrValueTooBig
	}
	meta, err := t.e.table(table)
	if err != nil {
		return err
	}
	if err := t.lock(t.e.recordResource(table, key), lockmgr.Exclusive); err != nil {
		return err
	}
	if err := t.checkOccupancy(table, meta.pages, key, value); err != nil {
		return err
	}
	t.staged = append(t.staged, Image{Table: table, Key: key, After: append([]byte(nil), value...)})
	return nil
}

// pageSlack is the occupancy margin kept free on every page to absorb
// concurrent growth between staging and apply.
const pageSlack = 512

// checkOccupancy verifies the key's page can hold the staged change set
// plus this new record with the safety margin to spare. It sums each
// key's last change against the current image instead of building the
// resulting page.
func (t *Tx) checkOccupancy(table string, pages int, key string, value []byte) error {
	page := pageOf(key, pages)
	img, err := t.e.fetchPage(t.ctx, table, page)
	if err != nil {
		return err
	}
	size := len(img.raw) + img.grows(key, value, true)
	seen := []string{key}
	for i := len(t.staged) - 1; i >= 0; i-- {
		c := t.staged[i]
		if c.Table != table || slices.Contains(seen, c.Key) || pageOf(c.Key, pages) != page {
			continue
		}
		seen = append(seen, c.Key)
		size += img.grows(c.Key, c.After, !c.Delete)
	}
	if size > dasd.BlockSize-pageSlack {
		return fmt.Errorf("%w: page %d of %q at %d bytes", ErrPageFull, page, table, size)
	}
	return nil
}

// Delete stages a record removal under an exclusive lock.
func (t *Tx) Delete(table, key string) error {
	if t.done {
		return ErrTxDone
	}
	if _, err := t.e.table(table); err != nil {
		return err
	}
	if err := t.lock(t.e.recordResource(table, key), lockmgr.Exclusive); err != nil {
		return err
	}
	t.staged = append(t.staged, Image{Table: table, Key: key, Delete: true})
	return nil
}

// Commit forces the log and applies the staged changes to the shared
// pages (write-ahead: the COMMIT record first, then pages through the
// group buffer pool), then releases all locks: a record lock, whose
// record names this transaction for peer redo, outlives its apply.
//
// lintctx: the transaction's context is captured at Begin
// (database/sql idiom); once the COMMIT record is forced, apply and
// lock release run detached so a cancelled caller cannot half-apply a
// committed transaction.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	if len(t.staged) == 0 {
		t.release()
		t.e.bump(func(s *Stats) { s.Commits++ })
		return nil
	}
	// 1. Log force: the COMMIT record with the after images.
	if err := t.e.appendLog(t.ctx, t.commitRecords()...); err != nil {
		t.release()
		t.e.bump(func(s *Stats) { s.Aborts++ })
		return err
	}
	// 2. Apply, committed since step 1: detached from the caller, and
	// waiting out a latch retained for a failed system until its recovery.
	dctx := vclock.Detach(t.ctx)
	err := t.e.applyChanges(dctx, t.id, t.staged)
	for errors.Is(err, lockmgr.ErrRetained) {
		<-t.e.clock.After(time.Millisecond)
		err = t.e.applyChanges(dctx, t.id, t.staged)
	}
	if err != nil && !errors.Is(err, cf.ErrCFDown) {
		// The locks stay held for a peer's redo should this system fail;
		// a rerun would apply the transaction twice.
		return fmt.Errorf("db: %s committed but not applied: %w", t.id, err)
	}
	// 3. Release the locks (a lost simplex CF took their state already).
	t.release()
	if err != nil {
		return err
	}
	t.e.bump(func(s *Stats) { s.Commits++; s.Writes += int64(len(t.staged)) })
	return nil
}

// Abort discards staged changes and releases locks. Because changes are
// only externalized at commit, no undo I/O is needed.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.release()
	t.e.bump(func(s *Stats) { s.Aborts++ })
}

func (t *Tx) release() {
	// Detached: releasing locks must succeed even when the caller's
	// context is already cancelled, or the locks would be stranded.
	ctx := vclock.Detach(t.ctx)
	resources := make([]string, 0, len(t.locks))
	for res := range t.locks {
		resources = append(resources, res)
	}
	// One CF batch for the whole release set: on a transport CF a
	// commit's unlocks cross the link once instead of once per lock.
	t.e.locks.UnlockAll(ctx, t.id, resources)
	t.locks = map[string]bool{}
}

// commitRecords packs the staged after images into log records of at
// most logr.MaxRecord bytes. The COMMIT record, the transaction's one
// atomic commit point, carries the last images; any that do not fit it
// go ahead of it in UPDATE records, which redo ignores without their
// COMMIT.
func (t *Tx) commitRecords() []*LogRecord {
	var recs []*LogRecord
	head := (&LogRecord{Tx: t.id, Sys: t.e.sys}).size()
	from, size := 0, head
	for i := range t.staged {
		n := t.staged[i].size()
		if i > from && size+n > logr.MaxRecord {
			recs = append(recs, &LogRecord{Tx: t.id, Kind: recUpdate, Images: t.staged[from:i]})
			from, size = i, head
		}
		size += n
	}
	return append(recs, &LogRecord{Tx: t.id, Kind: recCommit, Images: t.staged[from:]})
}

// appendLog forces records to the write-ahead log stream, in order.
func (e *Engine) appendLog(ctx context.Context, recs ...*LogRecord) error {
	for _, r := range recs {
		r.Sys = e.sys
		if _, err := e.sync.Write(ctx, r.encode()); err != nil {
			return err
		}
	}
	return nil
}

// applyChanges applies after images grouped by page, each page under
// an exclusive page latch, writing through the group buffer pool.
// Latches are taken in one global order and nothing else is waited for
// while one is held, so a timed-out or victimised latch wait waits again.
func (e *Engine) applyChanges(ctx context.Context, owner string, images []Image) error {
	type pageKey struct {
		table string
		page  int
	}
	grouped := map[pageKey][]Image{}
	for _, im := range images {
		meta, err := e.table(im.Table)
		if err != nil {
			return err
		}
		k := pageKey{im.Table, pageOf(im.Key, meta.pages)}
		grouped[k] = append(grouped[k], im)
	}
	keys := make([]pageKey, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].page < keys[j].page
	})
	// Latch every page in sorted order (the global latch order, so no
	// deadlock with concurrent committers), build all the new images,
	// then write the whole group through the buffer pool as CF batches:
	// the commit's page writes and their XI fan-out cross the link a
	// chunk at a time instead of once per page.
	latches := make([]string, 0, len(keys))
	defer func() { e.locks.UnlockAll(ctx, owner, latches) }()
	pages := make(map[string][]byte, len(keys))
	for _, k := range keys {
		latch := e.pageResource(k.table, k.page)
		err := e.locks.Lock(ctx, owner, latch, lockmgr.Exclusive, e.timeout)
		for errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, lockmgr.ErrDeadlock) {
			err = e.locks.Lock(ctx, owner, latch, lockmgr.Exclusive, e.timeout)
		}
		if err != nil {
			return err
		}
		latches = append(latches, latch)
		img, err := e.fetchPage(ctx, k.table, k.page)
		if err != nil {
			return err
		}
		for _, im := range grouped[k] {
			if im.Delete {
				img.delete(im.Key)
			} else {
				img.set(im.Key, im.After)
			}
		}
		raw, err := img.encode()
		if err != nil {
			return err
		}
		pages[pageName(k.table, k.page)] = raw
	}
	return e.pool.WritePages(ctx, pages)
}

// fetchPage reads a page through the buffer pool (a private copy) and
// validates it.
func (e *Engine) fetchPage(ctx context.Context, table string, page int) (pageImage, error) {
	raw, err := e.pool.GetPage(ctx, pageName(table, page))
	if err != nil {
		return pageImage{}, err
	}
	return decodePage(raw)
}

func (e *Engine) table(name string) (*tableMeta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

func (e *Engine) bump(fn func(*Stats)) {
	e.mu.Lock()
	fn(&e.stats)
	e.mu.Unlock()
}

// ScanPages runs fn over every record in pages [lo, hi) of a table,
// taking a share latch per page for a consistent page image. This is
// the unit a decision-support query splits into sub-queries (§2.3).
// fn returning false stops the scan.
func (e *Engine) ScanPages(ctx context.Context, owner, table string, lo, hi int, fn func(key string, value []byte) bool) error {
	meta, err := e.table(table)
	if err != nil {
		return err
	}
	if lo < 0 {
		lo = 0
	}
	if hi > meta.pages {
		hi = meta.pages
	}
	for p := lo; p < hi; p++ {
		latch := e.pageResource(table, p)
		if err := e.locks.Lock(ctx, owner, latch, lockmgr.Share, e.timeout); err != nil {
			return err
		}
		img, err := e.fetchPage(ctx, table, p)
		e.locks.Unlock(ctx, owner, latch)
		if err != nil {
			return err
		}
		if !img.each(fn) {
			return nil
		}
	}
	return nil
}

// RangeScan runs fn over every record with from <= key < to (empty
// bounds are open), in key order. Keys hash across pages, so this is a
// full sweep with a sort — the decision-support access path, not an
// OLTP one. fn returning false stops the scan.
func (e *Engine) RangeScan(ctx context.Context, owner, table, from, to string, fn func(key string, value []byte) bool) error {
	meta, err := e.table(table)
	if err != nil {
		return err
	}
	type rec struct {
		key string
		val []byte
	}
	var recs []rec
	err = e.ScanPages(ctx, owner, table, 0, meta.pages, func(k string, v []byte) bool {
		if from != "" && k < from {
			return true
		}
		if to != "" && k >= to {
			return true
		}
		recs = append(recs, rec{k, v})
		return true
	})
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	for _, r := range recs {
		if !fn(r.key, r.val) {
			return nil
		}
	}
	return nil
}

// RecoveryReport summarizes peer recovery for a failed system.
type RecoveryReport struct {
	FailedSystem string
	RedoApplied  int
	LocksFreed   int
}

// RecoverPeer performs database recovery on behalf of a failed system.
// As in IRLM, its retained locks decide what is redone: a record lock
// outlives its image's apply, so only a committed image still retained
// under its own transaction can be missing from the group buffer pool.
// The record locks protect the records throughout (§2.5, §3.3.1); the
// page latches guard only an in-memory apply and are freed first.
func (e *Engine) RecoverPeer(ctx context.Context, failedSys string) (RecoveryReport, error) {
	rep := RecoveryReport{FailedSystem: failedSys}
	retained, err := e.locks.RetainedResources(ctx, failedSys)
	if err != nil {
		return rep, err
	}
	owners := make(map[string]string, len(retained))
	for _, rec := range retained {
		if !strings.HasPrefix(rec.Resource, "P."+e.name+".") { // not a page latch
			owners[rec.Resource] = rec.Owner
		} else if err := e.locks.ReleaseRetained(ctx, failedSys, rec.Resource); err != nil {
			return rep, err
		} else {
			rep.LocksFreed++
		}
	}
	recs, err := e.streamLogRecords(ctx, failedSys)
	if err != nil {
		return rep, err
	}
	_, rep.RedoApplied, err = e.redo(ctx, "RECOVERY."+e.sys+"."+failedSys, recs, owners)
	if err != nil {
		return rep, err
	}
	for res := range owners {
		if err := e.locks.ReleaseRetained(ctx, failedSys, res); err != nil {
			return rep, err
		}
		rep.LocksFreed++
	}
	e.bump(func(s *Stats) { s.Recovered += int64(rep.RedoApplied) })
	return rep, nil
}

// ColdReport summarizes a cold-start redo pass.
type ColdReport struct {
	Transactions int // committed transactions redone
	RedoApplied  int // after images applied
}

// RecoverCold redoes every committed transaction found on the log
// stream after a whole-sysplex cold start. Unlike RecoverPeer it
// consults no retained locks: the group buffer pool did not survive the
// crash, only cast-out pages and the log stream did. Redo is pure
// after-image replay in log order, so it is idempotent over pages that
// did get cast out. Every table named in the log must already be
// opened.
func (e *Engine) RecoverCold(ctx context.Context) (ColdReport, error) {
	var rep ColdReport
	recs, err := e.streamLogRecords(ctx, "")
	if err != nil {
		return rep, err
	}
	rep.Transactions, rep.RedoApplied, err = e.redo(ctx, "COLDSTART."+e.sys, recs, nil)
	if err != nil {
		return rep, err
	}
	e.bump(func(s *Stats) { s.Recovered += int64(rep.RedoApplied) })
	return rep, nil
}

// redo applies the after images of every committed transaction in recs
// at its COMMIT record, in log order: a transaction that overwrote
// another's record committed after it. A non-nil owners map (record
// resource to the transaction retaining it) keeps only the images
// retained under their own transaction; other kinds (an older tree's
// END) are skipped. It returns the transactions redone and images applied.
func (e *Engine) redo(ctx context.Context, owner string, recs []LogRecord, owners map[string]string) (txs, applied int, err error) {
	spilled := map[string][]Image{} // UPDATE records awaiting their COMMIT
	for _, r := range recs {
		switch r.Kind {
		case recUpdate:
			spilled[r.Tx] = append(spilled[r.Tx], r.Images...)
		case recCommit:
			images := append(spilled[r.Tx], r.Images...)
			delete(spilled, r.Tx)
			if owners != nil {
				images = slices.DeleteFunc(images, func(im Image) bool {
					return owners[e.recordResource(im.Table, im.Key)] != r.Tx
				})
			}
			if len(images) == 0 {
				continue
			}
			if err := e.applyChanges(ctx, owner, images); err != nil {
				return txs, applied, fmt.Errorf("db: redo of %s: %w", r.Tx, err)
			}
			txs++
			applied += len(images)
		}
	}
	return txs, applied, nil
}

// streamLogRecords reads the log stream in timestamp order across
// offloaded and interim storage, keeping only sys's records unless sys
// is empty. The stream is shared, so recovery needs no dataset handoff
// and has no system affinity.
func (e *Engine) streamLogRecords(ctx context.Context, sys string) ([]LogRecord, error) {
	cur, err := e.sync.Browse(ctx)
	if err != nil {
		return nil, err
	}
	var out []LogRecord
	for {
		rec, ok := cur.Next()
		if !ok {
			return out, nil
		}
		r, err := decodeLogRecord(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("db: corrupt log record on stream %s: %w", e.sync.Name(), err)
		}
		if sys == "" || r.Sys == sys {
			out = append(out, r)
		}
	}
}
