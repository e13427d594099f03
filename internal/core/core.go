// Package core is the public face of the reproduction: a small storage
// manager in the style of the POSTGRES storage system, whose indexes are
// the paper's fast-recovery B-link trees.
//
// The pieces compose exactly as the paper assumes (§2):
//
//   - relations are no-overwrite heaps (internal/heap) whose tuple
//     visibility is decided against the transaction status table
//     (internal/txn) — so a crash needs no log processing, it simply
//     leaves dead transactions out of the status table;
//   - indexes are B-link trees kept crash-consistent by shadow paging or
//     page reorganization (internal/btree); interrupted splits are
//     detected on first use and repaired in place;
//   - a transaction commits by forcing its pages (unordered sync) and then
//     persisting its commit record;
//   - index keys pointing at dead tuples are tolerated by readers and
//     removed by the vacuum (internal/vacuum), never transactionally.
//
// Open a DB over a directory for durable storage, or in memory (with crash
// injection) for experiments:
//
//	db, _ := core.Open(core.Memory(), core.Config{})
//	rel, _ := db.CreateRelation("accounts")
//	idx, _ := db.CreateIndex("accounts_pk", core.Shadow)
//	tx := db.Begin()
//	tid, _ := rel.Insert(tx, []byte("alice,100"))
//	_ = idx.InsertTID(tx, []byte("alice"), tid)
//	_ = tx.Commit()
package core

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/vacuum"
)

// Variant re-exports the index algorithms.
type Variant = btree.Variant

// Index variants.
const (
	Normal = btree.Normal
	Shadow = btree.Shadow
	Reorg  = btree.Reorg
	Hybrid = btree.Hybrid
)

// Common errors re-exported for callers.
var (
	ErrKeyNotFound  = btree.ErrKeyNotFound
	ErrDuplicateKey = btree.ErrDuplicateKey
	ErrNoSuchTuple  = heap.ErrNoSuchTuple
	ErrNotVisible   = errors.New("core: tuple not visible")
)

// Config configures a DB.
type Config struct {
	// Variant is read by nothing: CreateIndex takes its variant as an
	// argument. It stays only because benchmark/run.go sets it, and goes
	// when that copy of the server's configuration does (ROADMAP 4(b)).
	Variant Variant
	// PoolSize is the per-file buffer pool capacity in frames.
	PoolSize int
	// IndexOptions are passed through to every index.
	IndexOptions btree.Options
	// LoadFill is the leaf/internal fill factor for bulk loads and
	// wholesale rebuilds, clamped to [0.5, 1.0] by the loader. Zero means
	// btree.DefaultFillFactor.
	LoadFill float64
	// Supervisor configures the background repair supervisor and the
	// quarantine backoff knobs applied to every pool the DB opens.
	Supervisor SupervisorConfig
	// FlushEvery, when positive, starts a background checkpoint daemon
	// that writes dirty pages back on this interval, so commit-time
	// forces stop paying for cold dirty pages (see flusher.go).
	FlushEvery time.Duration
	// Obs, when non-nil, receives recovery events and metrics from every
	// index and buffer pool the DB opens. A nil recorder costs one
	// pointer check per instrumented site.
	Obs *obs.Recorder
}

// Events returns the recovery-event ring recorded so far, oldest first.
// It returns nil when the DB was opened without a recorder.
func (db *DB) Events() []obs.Event { return db.cfg.Obs.Events() }

// Metrics returns a point-in-time snapshot of the recovery counters,
// timers, and event ring. The zero Snapshot is returned when the DB was
// opened without a recorder.
func (db *DB) Metrics() obs.Snapshot { return db.cfg.Obs.Snapshot() }

// IOStats aggregates the fault-handling counters of every buffer pool the
// DB has opened (relations and indexes): retries after transient errors,
// pages classified never-durable by checksum verification, and torn pages
// completed by crash repair.
func (db *DB) IOStats() buffer.IOStats {
	var total buffer.IOStats
	for _, np := range db.pools() {
		s := np.pool.IOStats()
		total.Retries += s.Retries
		total.ChecksumFailures += s.ChecksumFailures
		total.TornPagesRepaired += s.TornPagesRepaired
		total.RetriesExhausted += s.RetriesExhausted
		total.Quarantined += s.Quarantined
	}
	return total
}

// CacheStats is the DB-wide buffer-cache view: aggregate hit/miss counts
// plus the per-partition breakdown of every pool, keyed by file name.
type CacheStats struct {
	Hits       int64                             `json:"hits"`
	Misses     int64                             `json:"misses"`
	Partitions map[string][]buffer.PartitionStat `json:"partitions,omitempty"`
}

// CacheStats aggregates the lock-striped buffer-pool counters of every
// pool the DB has opened (relations and indexes). The underlying counters
// are atomics, so this never contends with in-flight page access.
func (db *DB) CacheStats() CacheStats {
	out := CacheStats{Partitions: make(map[string][]buffer.PartitionStat)}
	for _, np := range db.pools() {
		h, m := np.pool.Stats()
		out.Hits += h
		out.Misses += m
		out.Partitions[np.file] = np.pool.PartitionStats()
	}
	return out
}

// Storage decides where the DB's files live.
type Storage interface {
	open(name string) (storage.Disk, error)
	// exists reports whether open(name) would find a file already there.
	exists(name string) bool
}

type memStorage struct {
	mu    sync.Mutex
	disks map[string]*storage.MemDisk
}

func (m *memStorage) open(name string) (storage.Disk, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.disks[name]; ok {
		return d, nil
	}
	d := storage.NewMemDisk()
	m.disks[name] = d
	return d, nil
}

func (m *memStorage) exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disks[name] != nil
}

// Memory returns in-memory storage whose files persist across DB reopens of
// the same Storage value — the substrate for crash-injection experiments.
func Memory() Storage {
	return &memStorage{disks: make(map[string]*storage.MemDisk)}
}

// MemoryDisks exposes the underlying MemDisks of a Memory() storage for
// crash injection in tests and experiments; it returns nil for other
// storage kinds.
func MemoryDisks(s Storage) map[string]*storage.MemDisk {
	if m, ok := s.(*memStorage); ok {
		return m.disks
	}
	return nil
}

type faultMemStorage struct {
	mu    sync.Mutex
	cfg   storage.FaultConfig
	disks map[string]*storage.FaultDisk
}

func (m *faultMemStorage) open(name string) (storage.Disk, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.disks[name]; ok {
		return d, nil
	}
	d, err := storage.NewFaultDisk(storage.NewMemDisk(), m.cfg)
	if err != nil {
		return nil, err
	}
	m.disks[name] = d
	return d, nil
}

func (m *faultMemStorage) exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disks[name] != nil
}

// FaultyMemory returns in-memory storage whose files sit behind a
// fault-injecting disk layer — the substrate for degraded-mode and
// supervisor experiments. Files persist across DB reopens of the same
// Storage value.
func FaultyMemory(cfg storage.FaultConfig) Storage {
	return &faultMemStorage{cfg: cfg, disks: make(map[string]*storage.FaultDisk)}
}

// FaultDisks exposes the underlying FaultDisks of a FaultyMemory() storage
// for fault scheduling in tests and experiments; it returns nil for other
// storage kinds.
func FaultDisks(s Storage) map[string]*storage.FaultDisk {
	if m, ok := s.(*faultMemStorage); ok {
		return m.disks
	}
	return nil
}

type countedStorage struct {
	Storage
	c *storage.IOCounter
}

func (s countedStorage) open(name string) (storage.Disk, error) {
	d, err := s.Storage.open(name)
	if err != nil {
		return nil, err
	}
	return storage.NewCountingDisk(d, s.c), nil
}

// Counted returns s with every file it opens behind a storage.CountingDisk
// counting into c: the whole store seen as one device, so that c's waves are
// the device waits of everything the DB does.
func Counted(s Storage, c *storage.IOCounter) Storage { return countedStorage{s, c} }

type dirStorage struct{ dir string }

func (d dirStorage) open(name string) (storage.Disk, error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	return storage.OpenFileDisk(filepath.Join(d.dir, name+".pg"))
}

func (d dirStorage) exists(name string) bool {
	_, err := os.Stat(filepath.Join(d.dir, name+".pg"))
	return err == nil
}

// Dir returns file-backed storage rooted at dir.
func Dir(dir string) Storage { return dirStorage{dir: dir} }

// DB is a minimal POSTGRES-style storage manager.
type DB struct {
	cfg     Config
	store   Storage
	mgr     *txn.Manager
	mu      sync.Mutex
	rels    map[string]*Relation
	indexes map[string]*Index

	// Health-state machine (health.go) and repair supervisor
	// (supervisor.go).
	health      atomic.Int32 // HealthState
	healthDirty atomic.Bool
	super       *supervisor
	flush       *flusher
	healSources map[string]healSource // index name -> heap rebuild source
}

// Open opens (creating as needed) a database on the given storage.
func Open(store Storage, cfg Config) (*DB, error) {
	ctl, err := store.open("control")
	if err != nil {
		return nil, err
	}
	mgr, err := txn.OpenManager(ctl)
	if err != nil {
		return nil, err
	}
	mgr.SetObs(cfg.Obs)
	db := &DB{
		cfg:         cfg,
		store:       store,
		mgr:         mgr,
		rels:        make(map[string]*Relation),
		indexes:     make(map[string]*Index),
		healSources: make(map[string]healSource),
	}
	if cfg.Supervisor.Enable {
		db.startSupervisor()
	}
	db.startFlusher()
	return db, nil
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn { return &Txn{db: db, tx: db.mgr.Begin()} }

// Manager exposes the transaction manager (visibility checks, snapshots).
func (db *DB) Manager() *txn.Manager { return db.mgr }

// CreateRelation opens (creating if absent) a heap relation.
func (db *DB) CreateRelation(name string) (*Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if r, ok := db.rels[name]; ok {
		return r, nil
	}
	d, err := db.store.open("rel_" + name)
	if err != nil {
		return nil, err
	}
	r, err := heap.Open(d, db.cfg.PoolSize)
	if err != nil {
		return nil, err
	}
	r.Pool().SetObs(db.cfg.Obs)
	db.attachHealth(r.Pool())
	rel := &Relation{db: db, name: name, h: r}
	db.rels[name] = rel
	return rel, nil
}

// Close cleanly shuts down every file (persisting freelists and counter
// state). Skipping Close models a crash; the next Open recovers.
func (db *DB) Close() error {
	db.stopFlusher()
	db.stopSupervisor()
	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	for _, ix := range db.indexes {
		for _, t := range ix.trees {
			if err := t.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, r := range db.rels {
		if err := r.h.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Txn is one transaction.
type Txn struct {
	db *DB
	tx *txn.Txn
}

// XID returns the transaction's identifier.
func (t *Txn) XID() heap.XID { return t.tx.XID() }

// Commit forces every touched file and then persists the commit record.
func (t *Txn) Commit() error { return t.tx.Commit() }

// Abort abandons the transaction; nothing is undone, its tuples are simply
// never visible.
func (t *Txn) Abort() error { return t.tx.Abort() }

// Relation is a no-overwrite heap relation.
type Relation struct {
	db   *DB
	name string
	h    *heap.Relation
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Heap exposes the underlying heap (for the vacuum and experiments).
func (r *Relation) Heap() *heap.Relation { return r.h }

// writableBy reports why t may not write a tuple: the database is not
// writable, or t's XID was never reserved (txn.Txn.Err) and a tuple under it
// could be resurrected by the XID's next owner.
func (r *Relation) writableBy(t *Txn) error {
	if err := r.db.writable(); err != nil {
		return err
	}
	return t.tx.Err()
}

// Insert writes a tuple version owned by the transaction.
func (r *Relation) Insert(t *Txn, data []byte) (heap.TID, error) {
	if err := r.writableBy(t); err != nil {
		return heap.TID{}, err
	}
	t.tx.Touch(r.h)
	return r.h.Insert(t.XID(), data)
}

// Delete stamps the version's xmax; the version stays for historical reads
// until the vacuum reclaims it.
func (r *Relation) Delete(t *Txn, tid heap.TID) error {
	if err := r.writableBy(t); err != nil {
		return err
	}
	t.tx.Touch(r.h)
	return r.h.Delete(tid, t.XID(), r.db.mgr)
}

// Update writes a new version and invalidates the old one.
func (r *Relation) Update(t *Txn, tid heap.TID, data []byte) (heap.TID, error) {
	if err := r.writableBy(t); err != nil {
		return heap.TID{}, err
	}
	t.tx.Touch(r.h)
	return r.h.Update(tid, t.XID(), data, r.db.mgr)
}

// Fetch returns the tuple if visible to current committed state.
func (r *Relation) Fetch(tid heap.TID) ([]byte, error) {
	if err := r.db.readable(); err != nil {
		return nil, err
	}
	return r.h.Fetch(tid, r.db.mgr)
}

// FetchAppend is Fetch that appends the tuple to dst (heap.Relation.FetchAppend).
func (r *Relation) FetchAppend(dst []byte, tid heap.TID) ([]byte, error) {
	if err := r.db.readable(); err != nil {
		return dst, err
	}
	return r.h.FetchAppend(dst, tid, r.db.mgr)
}

// FetchAsOf returns the version visible to a historical snapshot — the
// time-travel read the no-overwrite storage system exists to support.
func (r *Relation) FetchAsOf(tid heap.TID, asOf heap.XID) ([]byte, error) {
	return r.h.FetchAsOf(tid, r.db.mgr, asOf)
}

// MakeUnique turns a possibly-duplicated key value into a unique index key
// by appending the tuple identifier, as POSTGRES does with <value,
// object_id> keys (§2).
func MakeUnique(key []byte, tid heap.TID) []byte {
	out := make([]byte, 0, len(key)+heap.TIDLen)
	out = append(out, key...)
	return append(out, tid.Bytes()...)
}

// VacuumIndex regenerates the index freelist (§3.3.3), tree by tree.
func (db *DB) VacuumIndex(ix *Index) (vacuum.IndexStats, error) {
	var total vacuum.IndexStats
	for _, t := range ix.trees {
		st, err := vacuum.Index(t)
		total.ScannedPages += st.ScannedPages
		total.ReachablePages += st.ReachablePages
		total.Reclaimed += st.Reclaimed
		total.AlreadyFree += st.AlreadyFree
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// VacuumRelation reclaims dead tuple versions and removes the index keys
// pointing at them. keyOf extracts the indexed key from tuple data.
func (db *DB) VacuumRelation(rel *Relation, ix *Index, keyOf vacuum.KeyOf) (vacuum.HeapStats, error) {
	oldest := db.mgr.HighestCommitted() + 1
	var keys vacuum.KeyIndex
	if ix != nil {
		keys = indexKeys{ix}
	}
	return vacuum.Heap(rel.h, db.mgr, oldest, keys, keyOf)
}

// indexKeys is an index as the vacuum's KeyIndex: a key's lookup and delete
// go to the tree that owns it, and a sync forces every tree.
type indexKeys struct{ ix *Index }

func (k indexKeys) Lookup(key []byte) ([]byte, error) { return k.ix.pick(key).Lookup(key) }
func (k indexKeys) Delete(key []byte) error           { return k.ix.pick(key).Delete(key) }
func (k indexKeys) Sync() error {
	return k.ix.eachTree(func(_ int, t *btree.Tree) error { return t.Sync() })
}

// Relations lists the open relations, sorted by name.
func (db *DB) Relations() []*Relation {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Indexes lists the open indexes, sorted by name.
func (db *DB) Indexes() []*Index {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*Index, 0, len(db.indexes))
	for _, ix := range db.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
