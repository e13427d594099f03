package btree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/freelist"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/synctoken"
)

// Common errors.
var (
	// ErrKeyNotFound is returned by Lookup and Delete for absent keys.
	ErrKeyNotFound = errors.New("btree: key not found")
	// ErrDuplicateKey is returned by Insert for a key already present;
	// per §2, POSTGRES guarantees unique keys (duplicates become
	// <value, object_id> keys before they reach the index).
	ErrDuplicateKey = errors.New("btree: duplicate key")
	// ErrKeyTooLarge is returned for keys or values over the size bounds.
	ErrKeyTooLarge = errors.New("btree: key or value too large")
	// ErrEmptyKey is returned for zero-length keys, which are reserved as
	// the -infinity separator sentinel.
	ErrEmptyKey = errors.New("btree: empty key")
	// ErrUnrecoverable reports an inconsistency outside the failure
	// model (it cannot be produced by any crash the substrate permits).
	ErrUnrecoverable = errors.New("btree: unrecoverable inconsistency")
	// ErrVariantMismatch is returned when opening an existing index with
	// a different variant than it was created with.
	ErrVariantMismatch = errors.New("btree: variant mismatch")
)

// Options configures a Tree.
type Options struct {
	// PoolSize is the buffer pool capacity in frames (default
	// buffer.DefaultCapacity).
	PoolSize int
	// Obs, when non-nil, receives recovery events, repair-case counters
	// (§3.3 / §3.4 (a)–(e)), and latency histograms. It is also attached
	// to the tree's buffer pool. Nil disables recording at the cost of one
	// pointer test per hook.
	Obs *obs.Recorder

	// The ablations, set only by this package's tests and benchmarks:
	// they remove the protection the paper's techniques exist to provide.
	// noRangeCheck skips the descent-time key-range verification
	// (§3.3.1); noPeerCheck skips peer-pointer sync-token verification on
	// scans (§3.5.1).
	noRangeCheck bool
	noPeerCheck  bool
}

// Tree is one B-link-tree index over a page file.
//
// Concurrency (§3.6): lookups, scans, and inserts all run under the
// shared tree lock, ordered by per-frame latches with the Lehman-Yao
// pin-before-unlatch discipline and right-link chasing; splits serialize
// on the split lock and advertise themselves through a structure-version
// seqlock (see concurrent.go). Deletes, merges, and crash repairs take
// the tree lock exclusively — the paper permits exclusive repairs, and it
// lets the repair code assume a quiescent tree. A shared operation that
// detects damage (rather than a racing split) takes the exclusive lock and
// runs its one body again in repairing mode, which owns all repairs.
type Tree struct {
	pool    *buffer.Pool
	counter *synctoken.Counter
	free    *freelist.List
	variant Variant
	opts    Options

	mu sync.RWMutex // shared: lookups/scans/inserts; exclusive: deletes/repairs

	// splitMu is the split lock of §3.6: it conflicts only with other
	// splits, and is acquired before the page write latch.
	splitMu sync.Mutex

	// structVer is a seqlock on the tree structure: odd exactly while a
	// shared-mode split is reorganizing pages (bumped under splitMu).
	// Shared operations validate negative results against it; see
	// concurrent.go for the protocol.
	structVer atomic.Uint64

	// pendingFree holds pages replaced by splits; they move to the
	// freelist only after the next sync, when the pages that supersede
	// them are durable (§3.3 step 2).
	pendingFree []freelist.Entry

	// nextNew is the next page number when the freelist is empty. The
	// bound walk Open starts writes it (and boundErr, and proven) once and
	// publishes them by closing boundReady; every other access sits behind
	// awaitBound (boundwalk.go).
	nextNew    uint32
	boundReady chan struct{}
	boundErr   error
	// proven holds the leaves known to be linked into the peer chain since
	// the restart: those the bound walk proved, for which §3.5.1
	// verification would change nothing, and those verified since. It is
	// sized by the file at restart; a later page is stamped after the
	// crash and never needs it. verifyPeerPath adds to it under the
	// exclusive tree lock.
	proven bitmap

	// rebuildFallback, when set (only inside AbandonQuarantined, under the
	// exclusive lock), makes "no durable source" repair outcomes initialize
	// an empty page instead of returning ErrUnrecoverable; the supervisor
	// then re-inserts the lost keys from the heap relation.
	rebuildFallback bool

	// obs is the optional event recorder (nil = disabled; all methods on a
	// nil *obs.Recorder are no-ops). Immutable after Open.
	obs *obs.Recorder

	// splits counts page splits for SplitCount; every other event is
	// counted by obs.
	splits atomic.Uint64
}

// Open opens (creating if empty) an index of the given variant on disk.
// Opening an existing index checks the stored variant. Open reads the meta
// page and writes the sync counter through, whatever the size of the index.
// Recovery needs no separate pass: inconsistencies left by a crash are
// detected and repaired on first use, and lookups and scans are served as
// soon as Open returns. What does scale with the index — the walk that
// finds the lower bound for fresh page numbers — runs in a goroutine Open
// starts and Close joins; operations that allocate or mutate pages wait for
// it, and report its error (see boundwalk.go).
func Open(disk storage.Disk, variant Variant, opts Options) (*Tree, error) {
	t := &Tree{
		pool:       buffer.NewPool(disk, opts.PoolSize),
		free:       freelist.New(),
		variant:    variant,
		opts:       opts,
		obs:        opts.Obs,
		boundReady: make(chan struct{}),
	}
	t.pool.SetObs(opts.Obs)
	f, err := t.pool.Get(0)
	if err != nil {
		return nil, err
	}
	var rootNo, prevRootNo uint32
	var rootTok uint64
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
		metaPage{f.Data}.setVariant(variant)
		f.MarkDirty()
	} else {
		m := metaPage{f.Data}
		rootNo, prevRootNo, rootTok = m.root(), m.prevRoot(), m.rootToken()
		if m.variant() != variant {
			got := m.variant()
			f.Unpin()
			return nil, fmt.Errorf("%w: index is %v, requested %v", ErrVariantMismatch, got, variant)
		}
		// Reload the freelist persisted by a clean shutdown, then
		// clear the persisted copy; the clear becomes durable below,
		// before any page can be reallocated (§3.3.3).
		if entries := m.loadFreelist(); len(entries) > 0 {
			t.free.Reset(entries)
			m.clearFreelist()
			f.MarkDirty()
		}
	}
	f.Unpin()
	// Opening the counter persists the new stable maximum (and with it
	// the cleared freelist and fresh meta page) via a write-through sync.
	ctr, err := synctoken.Open(metaStore{t})
	if err != nil {
		return nil, err
	}
	t.counter = ctr
	// What is left of opening is proportional to the size of the index, so
	// it runs behind the caller's back: see boundwalk.go.
	go t.boundWalk(rootNo, prevRootNo, rootTok)
	return t, nil
}

// Variant returns the index algorithm in use.
func (t *Tree) Variant() Variant { return t.variant }

// SplitCount returns the number of page splits performed so far (used by
// the WAL comparator to size physical split logging).
func (t *Tree) SplitCount() uint64 { return t.splits.Load() }

// Pool exposes the buffer pool (used by the vacuum and by tests).
func (t *Tree) Pool() *buffer.Pool { return t.pool }

// Counter exposes the sync counter (used by tests and tools).
func (t *Tree) Counter() *synctoken.Counter { return t.counter }

// Freelist exposes the in-memory freelist (used by the vacuum).
func (t *Tree) Freelist() *freelist.List { return t.free }

// Sync makes all modified pages durable — the commit-time force of §2 —
// then advances the global sync counter and releases pages whose
// replacements are now durable onto the freelist.
//
// It holds the tree lock shared, plus the split lock, exactly as the blocked
// sync of insertPath does: lookups, scans and inserts that fit their
// leaf go on while the device wave is in flight, and only a split waits.
// That is enough because everything a sync orders itself against happens
// under splitMu or the exclusive lock — sync tokens are stamped there,
// pendingFree is appended there — and Advance follows the device sync, so a
// page stamped with the new token can only have been dirtied after it.
func (t *Tree) Sync() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.splitMu.Lock()
	defer t.splitMu.Unlock()
	return t.syncLocked()
}

func (t *Tree) syncLocked() error {
	if r := t.obs; r != nil {
		start := time.Now()
		defer func() { r.Observe(obs.TSyncFlush, time.Since(start)) }()
	}
	if err := t.pool.SyncAll(); err != nil {
		return err
	}
	if err := t.counter.Advance(); err != nil {
		return err
	}
	for _, e := range t.pendingFree {
		t.free.Put(e.PageNo, e.Lo, e.Hi)
	}
	t.pendingFree = t.pendingFree[:0]
	return nil
}

// Close persists the freelist and counter state for a clean shutdown. The
// tree must not be used afterwards. Skipping Close models a crash: the
// next Open recovers via the sync-token protocol.
func (t *Tree) Close() error {
	// Join the bound walk and the hinted reads: they read through the pool
	// this shutdown flushes, and the caller is free to close the disk next.
	walkErr := t.AwaitBound()
	t.pool.StopHints()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.syncLocked(); err != nil {
		return err
	}
	f, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	metaPage{f.Data}.saveFreelist(t.free.Entries())
	f.MarkDirty()
	f.Unpin()
	// CloseClean persists the counter state; its write-through sync also
	// carries the freelist.
	if err := t.counter.CloseClean(); err != nil {
		return err
	}
	return walkErr
}

// allocPage takes a page from the freelist — refusing pages whose old key
// range overlaps [lo,hi) or whose buffers are pinned (§3.3.3, §3.6) — or
// extends the file. The returned frame is pinned and zeroed.
func (t *Tree) allocPage(lo, hi []byte) (uint32, *buffer.Frame, error) {
	pinned := func(no storage.PageNo) bool { return t.pool.PinCount(no) > 0 }
	no, ok := t.free.Get(lo, hi, pinned)
	if !ok {
		no = t.nextNew
		t.nextNew++
	}
	f, err := t.pool.NewPage(no)
	if err != nil {
		return 0, nil, err
	}
	return no, f, nil
}

// freeAfterSync queues a superseded page for release at the next sync.
func (t *Tree) freeAfterSync(no uint32, lo, hi []byte) {
	t.pendingFree = append(t.pendingFree, freelist.Entry{
		PageNo: no, Lo: cloneBytes(lo), Hi: cloneBytes(hi),
	})
}

// freeNow releases a page immediately (shadow split step 3: the page was
// created in the current epoch and never reached stable storage).
func (t *Tree) freeNow(no uint32, lo, hi []byte) {
	t.pool.Drop(no)
	t.free.Put(no, lo, hi)
}

// splitUsesShadow reports whether splits at the given child level use the
// shadow technique (true) or page reorganization / in-place (false). For
// Hybrid, leaves shadow and upper levels reorganize (§1).
func (t *Tree) splitUsesShadow(childLevel uint8) bool {
	switch t.variant {
	case Shadow:
		return true
	case Hybrid:
		return childLevel == 0
	default:
		return false
	}
}

// pageIsShadow reports whether an internal page at the given level encodes
// prevPtr fields: exactly when its children split with the shadow
// technique.
func (t *Tree) pageIsShadow(level uint8) bool {
	if level == 0 {
		return false
	}
	return t.splitUsesShadow(level - 1)
}

// initTreePage formats a frame as a tree page of the right type for its
// level, stamping the current sync token.
func (t *Tree) initTreePage(f *buffer.Frame, level uint8) {
	typ := page.TypeLeaf
	if level > 0 {
		typ = page.TypeInternal
	}
	f.Data.Init(typ, level)
	if t.pageIsShadow(level) {
		f.Data.AddFlag(page.FlagShadow)
	}
	f.Data.AddFlag(page.FlagLineClean)
	f.Data.SetSyncToken(t.counter.Current())
	f.MarkDirty()
}

// durable reports whether a page initialized with the given token has
// certainly reached stable storage: every sync writes all dirty pages and
// advances the counter, so any token below the current one has been synced.
func (t *Tree) durable(token uint64) bool {
	return token < t.counter.Current()
}
