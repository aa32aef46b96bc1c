// Package db implements a multi-system data-sharing database manager in
// the mould of DB2/IMS-DB data sharing (§3.3, §5.2). Every system runs
// an Engine instance against the same shared tables:
//
//   - record-level 2PL through the IRLM-style lock manager (CF lock
//     structure underneath);
//   - page coherency and store-in committed-page caching through the
//     group buffer pool (CF cache structure underneath);
//   - a write-ahead log any peer can read for redo recovery of a
//     failed system while that system's retained locks protect the
//     affected records: a set of sysplex-merged System Logger log
//     streams — one update stream per table plus one sync stream
//     carrying COMMIT/END — in CF interim storage with DASD offload;
//   - page-range scans supporting the decision-support "split a query
//     into sub-queries" pattern of §2.3.
package db

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sysplex/internal/buffman"
	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
	"sysplex/internal/vclock"
)

// Errors returned by the engine.
var (
	ErrTxDone      = errors.New("db: transaction already committed or aborted")
	ErrNoTable     = errors.New("db: table not opened")
	ErrValueTooBig = errors.New("db: record too large")
)

// Log record kinds.
const (
	recUpdate = "update"
	recCommit = "commit"
	recEnd    = "end" // all of the transaction's page changes are applied
)

// LogRecord is one write-ahead-log entry. Update records carry both the
// before image (undo) and after image (redo) of a record-level change.
type LogRecord struct {
	Tx     string `json:"tx"`
	Sys    string `json:"sys,omitempty"` // writing system (the streams merge all systems)
	Kind   string `json:"kind"`
	Table  string `json:"table,omitempty"`
	Key    string `json:"key,omitempty"`
	Before []byte `json:"before,omitempty"`
	After  []byte `json:"after,omitempty"`
	Delete bool   `json:"delete,omitempty"`
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
	// log is a set of log streams (one update stream per table plus a
	// sync stream carrying COMMIT/END), and recovery browses the merged
	// streams.
	Logger *logr.Manager
	// PoolFrames sizes the local buffer pool (default 256).
	PoolFrames int
	// CacheEntries sizes the group buffer pool directory (default 4096).
	CacheEntries int
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
	sync    *logr.Stream // COMMIT/END stream
	timeout time.Duration

	mu     sync.Mutex
	tables map[string]*tableMeta
	txSeq  int64
	stats  Stats
}

type tableMeta struct {
	name   string
	pages  int
	ds     *dasd.Dataset
	stream *logr.Stream // per-table update stream
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
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 5 * time.Second
	}
	e := &Engine{
		name:    cfg.Name,
		sys:     cfg.System,
		farm:    cfg.Farm,
		volume:  cfg.Volume,
		fac:     cfg.Facility,
		locks:   cfg.Locks,
		clock:   cfg.Clock,
		logger:  cfg.Logger,
		timeout: cfg.LockTimeout,
		tables:  make(map[string]*tableMeta),
	}
	// Group buffer pool: first instance allocates, others attach.
	gbpName := "GBP." + cfg.Name
	cs, err := cfg.Facility.CacheStructure(gbpName)
	if err != nil {
		cs, err = cfg.Facility.AllocateCacheStructure(gbpName, cfg.CacheEntries)
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
	// The sync stream carries COMMIT/END for every transaction in the
	// group; table update streams are connected as tables are opened.
	s, err := cfg.Logger.Connect(ctx, logr.StreamSpec{Name: syncStreamName(cfg.Name)})
	if err != nil {
		return nil, err
	}
	e.sync = s
	return e, nil
}

// Log stream names.
func syncStreamName(db string) string         { return "DB." + db + ".SYNC" }
func tableStreamName(db, table string) string { return "DB." + db + ".T." + table }

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
	s, err := e.logger.Connect(ctx, logr.StreamSpec{Name: tableStreamName(e.name, name)})
	if err != nil {
		return err
	}
	e.tables[name] = &tableMeta{name: name, pages: pages, ds: ds, stream: s}
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
	return fmt.Sprintf("P.%s.%s.%d", e.name, table, page)
}

// Tx is a database transaction (strict two-phase locking; changes are
// applied at commit after the log force).
type Tx struct {
	e      *Engine
	ctx    context.Context
	id     string
	staged []change
	locks  map[string]bool
	done   bool
}

type change struct {
	table  string
	page   int
	key    string
	before []byte
	after  []byte
	del    bool
	hadOld bool
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
	id := fmt.Sprintf("%s-%06d", e.sys, e.txSeq)
	e.stats.Begins++
	e.mu.Unlock()
	return &Tx{e: e, ctx: ctx, id: id, locks: map[string]bool{}}
}

// ID returns the transaction identifier.
func (t *Tx) ID() string { return t.id }

// Context returns the context the transaction was begun with; layered
// access methods (e.g. ims) use it for engine calls made on the
// transaction's behalf.
func (t *Tx) Context() context.Context { return t.ctx }

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
		if c.table == table && c.key == key {
			if c.del {
				return nil, false, true
			}
			return append([]byte(nil), c.after...), true, true
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
	page := pageOf(key, meta.pages)
	before, hadOld, err := t.currentValue(table, key, page)
	if err != nil {
		return err
	}
	if err := t.checkOccupancy(table, page, key, value); err != nil {
		return err
	}
	t.staged = append(t.staged, change{
		table: table, page: page, key: key,
		before: before, hadOld: hadOld,
		after: append([]byte(nil), value...),
	})
	return nil
}

// pageSlack is the occupancy margin kept free on every page to absorb
// concurrent growth between staging and apply.
const pageSlack = 512

// checkOccupancy verifies the page can hold the staged change set plus
// this new record with the safety margin to spare.
func (t *Tx) checkOccupancy(table string, page int, key string, value []byte) error {
	img, err := t.e.fetchPage(t.ctx, table, page)
	if err != nil {
		return err
	}
	// Overlay this transaction's earlier staged changes for the page.
	for _, c := range t.staged {
		if c.table != table || c.page != page {
			continue
		}
		if c.del {
			img.delete(c.key)
		} else {
			img.set(c.key, c.after)
		}
	}
	img.set(key, value)
	raw, err := img.encode()
	if err != nil {
		return err
	}
	if len(raw) > dasd.BlockSize-pageSlack {
		return fmt.Errorf("%w: page %d of %q at %d bytes", ErrPageFull, page, table, len(raw))
	}
	return nil
}

// Delete stages a record removal under an exclusive lock.
func (t *Tx) Delete(table, key string) error {
	if t.done {
		return ErrTxDone
	}
	meta, err := t.e.table(table)
	if err != nil {
		return err
	}
	if err := t.lock(t.e.recordResource(table, key), lockmgr.Exclusive); err != nil {
		return err
	}
	page := pageOf(key, meta.pages)
	before, hadOld, err := t.currentValue(table, key, page)
	if err != nil {
		return err
	}
	t.staged = append(t.staged, change{
		table: table, page: page, key: key,
		before: before, hadOld: hadOld, del: true,
	})
	return nil
}

// currentValue reads the pre-change value (own staged writes first).
func (t *Tx) currentValue(table, key string, page int) ([]byte, bool, error) {
	if v, ok, hit := t.stagedValue(table, key); hit {
		return v, ok, nil
	}
	img, err := t.e.fetchPage(t.ctx, table, page)
	if err != nil {
		return nil, false, err
	}
	v, ok := img.get(key)
	return v, ok, nil
}

// Commit forces the log and applies the staged changes to the shared
// pages (write-ahead: log first, then pages through the group buffer
// pool, then the END record), then releases all locks.
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
	// 1. Log force: update records + COMMIT.
	recs := make([]*LogRecord, 0, len(t.staged)+1)
	for _, c := range t.staged {
		recs = append(recs, &LogRecord{
			Tx: t.id, Kind: recUpdate, Table: c.table, Key: c.key,
			Before: c.before, After: c.after, Delete: c.del,
		})
	}
	recs = append(recs, &LogRecord{Tx: t.id, Kind: recCommit})
	if err := t.e.appendLog(t.ctx, recs...); err != nil {
		t.release()
		t.e.bump(func(s *Stats) { s.Aborts++ })
		return err
	}
	// 2. Apply to pages in deterministic page order under page latches.
	// The transaction is committed the instant step 1 returns; a caller
	// cancellation must not leave it half-applied, so the apply and the
	// END record run under a detached context (recovery would redo an
	// interrupted apply, but in-line completion is the normal path).
	dctx := vclock.Detach(t.ctx)
	if err := t.e.applyChanges(dctx, t.id, t.staged); err != nil {
		// Committed per the log; recovery would redo. Surface the error.
		t.release()
		return err
	}
	// 3. END record: recovery skips redo for fully applied transactions.
	// The transaction is committed (step 1) and applied (step 2) by
	// now; failing to write END only costs recovery one idempotent
	// redo, so it must not be reported as a transaction failure — the
	// caller would wrongly treat a durably committed update as lost.
	_ = t.e.appendLog(dctx, &LogRecord{Tx: t.id, Kind: recEnd})
	t.release()
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

// appendLog forces records to the write-ahead log: update records go to
// the owning table's log stream and COMMIT/END to the sync stream;
// because a transaction's COMMIT lives on exactly one stream, it stays
// a single atomic commit point even though the updates fan out.
func (e *Engine) appendLog(ctx context.Context, recs ...*LogRecord) error {
	for _, r := range recs {
		r.Sys = e.sys
		stream := e.sync
		if r.Kind == recUpdate {
			meta, err := e.table(r.Table)
			if err != nil {
				return err
			}
			stream = meta.stream
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := stream.Write(ctx, raw); err != nil {
			return err
		}
	}
	return nil
}

// applyChanges applies record changes grouped by page, each page under
// an exclusive page latch, writing through the group buffer pool.
func (e *Engine) applyChanges(ctx context.Context, owner string, changes []change) error {
	type pageKey struct {
		table string
		page  int
	}
	grouped := map[pageKey][]change{}
	for _, c := range changes {
		k := pageKey{c.table, c.page}
		grouped[k] = append(grouped[k], c)
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
	unlatch := func() {
		e.locks.UnlockAll(ctx, owner, latches)
	}
	pages := make(map[string][]byte, len(keys))
	for _, k := range keys {
		latch := e.pageResource(k.table, k.page)
		if err := e.locks.Lock(ctx, owner, latch, lockmgr.Exclusive, e.timeout); err != nil {
			unlatch()
			return err
		}
		latches = append(latches, latch)
		img, err := e.fetchPage(ctx, k.table, k.page)
		if err != nil {
			unlatch()
			return err
		}
		for _, c := range grouped[k] {
			if c.del {
				img.delete(c.key)
			} else {
				img.set(c.key, c.after)
			}
		}
		raw, err := img.encode()
		if err != nil {
			unlatch()
			return err
		}
		pages[pageName(k.table, k.page)] = raw
	}
	err := e.pool.WritePages(ctx, pages)
	unlatch()
	return err
}

// fetchPage reads a page through the buffer pool and decodes it.
func (e *Engine) fetchPage(ctx context.Context, table string, page int) (*pageImage, error) {
	raw, err := e.pool.GetPage(ctx, pageName(table, page))
	if err != nil {
		return nil, err
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
		for _, k := range img.keys() {
			v, _ := img.get(k)
			if !fn(k, v) {
				return nil
			}
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

// RecoverPeer performs database recovery on behalf of a failed system:
// it reads the failed system's records off the merged log streams,
// re-applies (redoes) the changes of committed-but-not-fully-applied
// transactions,
// and then frees the failed system's retained locks. Retained locks
// protect the affected records for the whole procedure (§2.5, §3.3.1).
func (e *Engine) RecoverPeer(ctx context.Context, failedSys string) (RecoveryReport, error) {
	rep := RecoveryReport{FailedSystem: failedSys}
	recs, err := e.streamLogRecords(ctx, failedSys)
	if err != nil {
		return rep, err
	}
	committed := map[string]bool{}
	ended := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case recCommit:
			committed[r.Tx] = true
		case recEnd:
			ended[r.Tx] = true
		}
	}
	owner := "RECOVERY." + e.sys + "." + failedSys
	for _, r := range recs {
		if r.Kind != recUpdate || !committed[r.Tx] || ended[r.Tx] {
			continue
		}
		meta, err := e.table(r.Table)
		if err != nil {
			return rep, fmt.Errorf("db: recovery needs table %q opened: %v", r.Table, err)
		}
		page := pageOf(r.Key, meta.pages)
		latch := e.pageResource(r.Table, page)
		if err := e.locks.Lock(ctx, owner, latch, lockmgr.Exclusive, e.timeout); err != nil {
			return rep, err
		}
		err = func() error {
			img, err := e.fetchPage(ctx, r.Table, page)
			if err != nil {
				return err
			}
			if r.Delete {
				img.delete(r.Key)
			} else {
				img.set(r.Key, r.After)
			}
			raw, err := img.encode()
			if err != nil {
				return err
			}
			return e.pool.WritePage(ctx, pageName(r.Table, page), raw)
		}()
		e.locks.Unlock(ctx, owner, latch)
		if err != nil {
			return rep, err
		}
		rep.RedoApplied++
	}
	// Free the failed system's retained locks now that redo is complete.
	retained, err := e.locks.RetainedResources(ctx, failedSys)
	if err != nil {
		return rep, err
	}
	for _, rec := range retained {
		if err := e.locks.ReleaseRetained(ctx, failedSys, rec.Resource); err != nil {
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
	RedoApplied  int // update records applied
}

// RecoverCold redoes every committed transaction found on the merged
// log streams after a whole-sysplex cold start. Unlike RecoverPeer it
// ignores END records: END means "applied through the group buffer
// pool", and the GBP did not survive the crash — only casted-out pages
// and the log streams did. Redo is pure after-image replay in global
// log order, so it is idempotent over pages that did get cast out.
// Every table named in the log must already be opened.
func (e *Engine) RecoverCold(ctx context.Context) (ColdReport, error) {
	var rep ColdReport
	e.mu.Lock()
	streams := []*logr.Stream{e.sync}
	for _, t := range e.tables {
		streams = append(streams, t.stream)
	}
	e.mu.Unlock()
	committed := map[string]bool{}
	type keyedRec struct {
		key string
		rec LogRecord
	}
	var updates []keyedRec
	for _, s := range streams {
		cur, err := s.Browse(ctx)
		if err != nil {
			return rep, err
		}
		for {
			srec, ok := cur.Next()
			if !ok {
				break
			}
			var r LogRecord
			if err := json.Unmarshal(srec.Data, &r); err != nil {
				return rep, fmt.Errorf("db: corrupt log record on stream %s: %v", s.Name(), err)
			}
			switch r.Kind {
			case recCommit:
				committed[r.Tx] = true
			case recUpdate:
				updates = append(updates, keyedRec{key: srec.Key, rec: r})
			}
		}
	}
	// Global log order: stream keys are sysplex timestamps, so sorting
	// merges the per-table streams back into one history and the last
	// committed write to a record wins.
	sort.Slice(updates, func(i, j int) bool { return updates[i].key < updates[j].key })
	owner := "COLDSTART." + e.sys
	txs := map[string]bool{}
	for _, u := range updates {
		r := u.rec
		if !committed[r.Tx] {
			continue
		}
		meta, err := e.table(r.Table)
		if err != nil {
			return rep, fmt.Errorf("db: cold recovery needs table %q opened: %v", r.Table, err)
		}
		page := pageOf(r.Key, meta.pages)
		latch := e.pageResource(r.Table, page)
		if err := e.locks.Lock(ctx, owner, latch, lockmgr.Exclusive, e.timeout); err != nil {
			return rep, err
		}
		err = func() error {
			img, err := e.fetchPage(ctx, r.Table, page)
			if err != nil {
				return err
			}
			if r.Delete {
				img.delete(r.Key)
			} else {
				img.set(r.Key, r.After)
			}
			raw, err := img.encode()
			if err != nil {
				return err
			}
			return e.pool.WritePage(ctx, pageName(r.Table, page), raw)
		}()
		e.locks.Unlock(ctx, owner, latch)
		if err != nil {
			return rep, err
		}
		rep.RedoApplied++
		txs[r.Tx] = true
	}
	rep.Transactions = len(txs)
	e.bump(func(s *Stats) { s.Recovered += int64(rep.RedoApplied) })
	return rep, nil
}

// streamLogRecords reconstructs a failed system's log from the merged
// log streams: COMMIT/END markers from the sync stream, update records
// from every opened table's stream — each browsed in timestamp order
// across offloaded and interim storage, filtered to the failed system's
// records. The streams are shared, so recovery needs no dataset
// handoff and has no system affinity.
func (e *Engine) streamLogRecords(ctx context.Context, failedSys string) ([]LogRecord, error) {
	streams := []*logr.Stream{e.sync}
	e.mu.Lock()
	for _, t := range e.tables {
		streams = append(streams, t.stream)
	}
	e.mu.Unlock()
	var out []LogRecord
	for _, s := range streams {
		cur, err := s.Browse(ctx)
		if err != nil {
			return nil, err
		}
		for {
			rec, ok := cur.Next()
			if !ok {
				break
			}
			var r LogRecord
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("db: corrupt log record on stream %s: %v", s.Name(), err)
			}
			if r.Sys != failedSys {
				continue
			}
			out = append(out, r)
		}
	}
	return out, nil
}
