// Package exthash applies the paper's shadow-paging recovery technique to
// an extensible hash index (Fagin, Nievergelt, Pippenger & Strong, TODS
// 1979 — the paper's reference [4]). The paper's §1 claims the techniques
// carry over directly; this package is that claim made executable.
//
// Structure: a directory of 2^globalDepth bucket pointers, indexed by the
// low globalDepth bits of the key hash; buckets carry a local depth d and a
// d-bit prefix, and every directory slot whose low d bits equal the prefix
// points at the bucket. A full bucket splits into two buckets of depth d+1;
// when d would exceed the global depth, the directory doubles first.
//
// Recovery maps one-to-one onto the B-tree shadow technique:
//
//   - Directory entries are <bucketPtr, prevPtr> pairs, exactly like the
//     paper's <key, childPtr, prevPtr> triples. A bucket split allocates
//     two NEW bucket pages and never touches the old one, which remains the
//     durable recovery source named by prevPtr.
//   - The (localDepth, prefix) pair stamped in each bucket header plays the
//     role of the key range: a directory slot expects a bucket whose prefix
//     matches the slot's low bits; a zeroed or mismatched bucket is
//     detected on first use and rebuilt by re-hashing the prevPtr bucket's
//     keys (§3.3.1–3.3.2, transposed).
//   - Directory doubling is itself shadowed: the new directory chunks are
//     written to fresh pages and the meta page swings <dirPtr, prevDirPtr>
//     with a sync token; a lost chunk is rebuilt from the previous
//     directory, whose entry i covered the new entries i and i + 2^oldDepth.
//   - Buckets use the same slotted-page line table with the crash-careful
//     update protocol, so intra-page damage is detected and repaired the
//     same way.
//
// Freed bucket and directory pages are NOT reused (the B-tree's freelist
// key-range trick has no analogue that distinguishes two buckets with equal
// prefixes); reclaiming them is vacuum work, as §3.3.3 prescribes for
// regeneration in general.
package exthash

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/synctoken"
)

// Errors mirroring the btree package.
var (
	ErrKeyNotFound   = errors.New("exthash: key not found")
	ErrDuplicateKey  = errors.New("exthash: duplicate key")
	ErrKeyTooLarge   = errors.New("exthash: key or value too large")
	ErrEmptyKey      = errors.New("exthash: empty key")
	ErrUnrecoverable = errors.New("exthash: unrecoverable inconsistency")
)

// MaxKeySize and MaxValueSize bound items so buckets can always split.
const (
	MaxKeySize   = 512
	MaxValueSize = 512
	maxDepth     = 24 // 16M directory slots; far beyond the tests' needs
)

// Meta page body layout (page 0), after the standard header.
const (
	mOffGlobalDepth = 0  // uint8
	mOffDirStart    = 4  // uint32 first page of the current directory
	mOffPrevDir     = 8  // uint32 first page of the previous directory
	mOffDirToken    = 12 // uint64 expected token of current directory chunks
	mOffCtrMax      = 20 // synctoken state, as in the btree meta page
	mOffCtrGlobal   = 28
	mOffCtrCrash    = 36
	mOffCtrFlags    = 44
	metaBase        = page.HeaderSize
)

// Directory entries are 8 bytes: current bucket page and previous-version
// bucket page.
const entrySize = 8

var entriesPerDirPage = (page.Size - page.HeaderSize) / entrySize

// Index is one extensible hash index over a page device.
type Index struct {
	pool    *buffer.Pool
	counter *synctoken.Counter

	mu      sync.Mutex // single-writer, and reads share it too (hash ops are O(1))
	nextNew uint32
	obs     *obs.Recorder

	// Stats mirror the btree's counters for the recovery paths.
	Splits, Doublings, Repairs, DirRepairs uint64
}

// Open opens (creating if empty) an extensible hash index on disk. As with
// the trees, there is no recovery pass: damage is repaired on first use.
// rec, when non-nil, receives the index's and its buffer pool's events and
// counters from the first read Open makes; nil disables recording.
func Open(disk storage.Disk, poolSize int, rec *obs.Recorder) (*Index, error) {
	ix := &Index{pool: buffer.NewPool(disk, poolSize), obs: rec}
	ix.pool.SetObs(rec)
	f, err := ix.pool.Get(0)
	if err != nil {
		return nil, err
	}
	fresh := f.Data.IsZeroed()
	if fresh {
		f.Data.Init(page.TypeMeta, 0)
		f.MarkDirty()
	}
	f.Unpin()
	ctr, err := synctoken.Open(metaStore{ix})
	if err != nil {
		return nil, err
	}
	ix.counter = ctr
	ix.nextNew = disk.NumPages()
	if ix.nextNew < 1 {
		ix.nextNew = 1
	}
	if maxRef, err := ix.maxReferencedPage(); err != nil {
		return nil, err
	} else if maxRef+1 > ix.nextNew {
		ix.nextNew = maxRef + 1
	}
	if fresh || ix.dirStartLocked() == 0 {
		if err := ix.bootstrapLocked(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// metaStore persists the sync-counter state in the meta page, write-through
// (see the btree's metaStore for the rationale).
type metaStore struct{ ix *Index }

func (s metaStore) Load() (synctoken.State, bool, error) {
	f, err := s.ix.pool.Get(0)
	if err != nil {
		return synctoken.State{}, false, err
	}
	defer f.Unpin()
	if f.Data.IsZeroed() {
		return synctoken.State{}, false, nil
	}
	flags := f.Data[metaBase+mOffCtrFlags]
	return synctoken.State{
		Max:       getU64(f.Data[metaBase+mOffCtrMax:]),
		Global:    getU64(f.Data[metaBase+mOffCtrGlobal:]),
		LastCrash: getU64(f.Data[metaBase+mOffCtrCrash:]),
		Clean:     flags&2 != 0,
	}, flags&1 != 0, nil
}

func (s metaStore) Save(st synctoken.State) error {
	f, err := s.ix.pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Unpin()
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
	}
	putU64(f.Data[metaBase+mOffCtrMax:], st.Max)
	putU64(f.Data[metaBase+mOffCtrGlobal:], st.Global)
	putU64(f.Data[metaBase+mOffCtrCrash:], st.LastCrash)
	flags := byte(1)
	if st.Clean {
		flags |= 2
	}
	f.Data[metaBase+mOffCtrFlags] = flags
	f.MarkDirty()
	return s.ix.pool.SyncAll()
}

// bootstrapLocked creates the depth-0 directory (one entry) and one empty
// bucket.
func (ix *Index) bootstrapLocked() error {
	bNo, bF, err := ix.allocPage()
	if err != nil {
		return err
	}
	ix.initBucket(bF, 0, 0)
	bF.Unpin()

	dNo, dF, err := ix.allocPage()
	if err != nil {
		return err
	}
	ix.initDirChunk(dF, 0)
	putU32(dF.Data[page.HeaderSize:], bNo)
	putU32(dF.Data[page.HeaderSize+4:], 0)
	dF.MarkDirty()
	dF.Unpin()

	mF, err := ix.pool.Get(0)
	if err != nil {
		return err
	}
	mF.Data[metaBase+mOffGlobalDepth] = 0
	putU32(mF.Data[metaBase+mOffDirStart:], dNo)
	putU32(mF.Data[metaBase+mOffPrevDir:], 0)
	putU64(mF.Data[metaBase+mOffDirToken:], ix.counter.Current())
	mF.MarkDirty()
	mF.Unpin()
	return nil
}

func (ix *Index) initBucket(f *buffer.Frame, depth uint8, prefix uint32) {
	f.Data.Init(page.TypeBucket, 0)
	f.Data.AddFlag(page.FlagLineClean)
	f.Data.SetSyncToken(ix.counter.Current())
	f.Data.SetSpecial(uint32(depth)<<24 | (prefix & 0xFFFFFF))
	f.MarkDirty()
}

func (ix *Index) initDirChunk(f *buffer.Frame, chunk uint32) {
	f.Data.Init(page.TypeHashDir, 0)
	f.Data.SetSyncToken(ix.counter.Current())
	f.Data.SetSpecial(chunk)
	f.MarkDirty()
}

func bucketDepth(p page.Page) uint8   { return uint8(p.Special() >> 24) }
func bucketPrefix(p page.Page) uint32 { return p.Special() & 0xFFFFFF }

// Sync forces all modified pages and advances the sync counter — the
// commit-time force of §2, identical to the tree's.
func (ix *Index) Sync() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.syncLocked()
}

func (ix *Index) syncLocked() error {
	if err := ix.pool.SyncAll(); err != nil {
		return err
	}
	return ix.counter.Advance()
}

// Pool exposes the buffer pool for crash-injection tests.
func (ix *Index) Pool() *buffer.Pool { return ix.pool }

func (ix *Index) allocPage() (uint32, *buffer.Frame, error) {
	no := ix.nextNew
	ix.nextNew++
	f, err := ix.pool.NewPage(no)
	if err != nil {
		return 0, nil, err
	}
	return no, f, nil
}

func hashKey(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	return h.Sum32()
}

// --- meta accessors (callers hold mu) ---

func (ix *Index) dirStartLocked() uint32 {
	f, err := ix.pool.Get(0)
	if err != nil {
		return 0
	}
	defer f.Unpin()
	return getU32(f.Data[metaBase+mOffDirStart:])
}

type metaState struct {
	globalDepth uint8
	dirStart    uint32
	prevDir     uint32
	dirToken    uint64
}

func (ix *Index) readMeta() (metaState, error) {
	f, err := ix.pool.Get(0)
	if err != nil {
		return metaState{}, err
	}
	defer f.Unpin()
	return metaState{
		globalDepth: f.Data[metaBase+mOffGlobalDepth],
		dirStart:    getU32(f.Data[metaBase+mOffDirStart:]),
		prevDir:     getU32(f.Data[metaBase+mOffPrevDir:]),
		dirToken:    getU64(f.Data[metaBase+mOffDirToken:]),
	}, nil
}

// dirChunkFrame returns the pinned, verified directory chunk holding slot.
// A chunk that was lost in a crash — zeroed, wrong type, wrong chunk index,
// or carrying a stale token — is rebuilt from the previous directory, whose
// entry (slot mod 2^(g-1)) covered this slot before the doubling (§3.3.2
// transposed to the directory).
func (ix *Index) dirChunkFrame(m metaState, slot uint32) (*buffer.Frame, error) {
	chunk := slot / uint32(entriesPerDirPage)
	no := m.dirStart + chunk
	f, err := ix.pool.Get(no)
	if err != nil {
		return nil, err
	}
	p := f.Data
	ok := p.Valid() && p.Type() == page.TypeHashDir &&
		p.Special() == chunk && p.SyncToken() == m.dirToken
	if ok {
		return f, nil
	}
	// Rebuild the chunk from the previous directory.
	if m.prevDir == 0 || m.globalDepth == 0 {
		f.Unpin()
		return nil, fmt.Errorf("%w: directory chunk %d lost with no previous directory",
			ErrUnrecoverable, chunk)
	}
	ix.DirRepairs++
	ix.obs.Eventf(obs.RepairHashDir, no, "directory chunk %d rebuilt from previous directory", chunk)
	oldMask := uint32(1)<<(m.globalDepth-1) - 1
	ix.initDirChunk(f, chunk)
	f.Data.SetSyncToken(m.dirToken)
	base := chunk * uint32(entriesPerDirPage)
	total := uint32(1) << m.globalDepth
	for i := uint32(0); i < uint32(entriesPerDirPage) && base+i < total; i++ {
		oldSlot := (base + i) & oldMask
		cur, prev, err := ix.readDirEntryAt(m.prevDir, oldSlot, m.globalDepth-1)
		if err != nil {
			f.Unpin()
			return nil, err
		}
		off := page.HeaderSize + int(i)*entrySize
		putU32(f.Data[off:], cur)
		putU32(f.Data[off+4:], prev)
	}
	f.MarkDirty()
	return f, nil
}

// readDirEntryAt reads entry slot of the directory starting at dirStart,
// without verification (used only to consult the previous directory, whose
// chunks are durable by construction).
func (ix *Index) readDirEntryAt(dirStart, slot uint32, depth uint8) (cur, prev uint32, err error) {
	chunk := slot / uint32(entriesPerDirPage)
	f, err := ix.pool.Get(dirStart + chunk)
	if err != nil {
		return 0, 0, err
	}
	defer f.Unpin()
	if !f.Data.Valid() || f.Data.Type() != page.TypeHashDir {
		return 0, 0, fmt.Errorf("%w: previous directory chunk %d unreadable",
			ErrUnrecoverable, chunk)
	}
	off := page.HeaderSize + int(slot%uint32(entriesPerDirPage))*entrySize
	return getU32(f.Data[off:]), getU32(f.Data[off+4:]), nil
}

// bucketForSlot returns the pinned, verified bucket for a directory slot,
// repairing a lost bucket from its prevPtr (the pre-split bucket) exactly
// as the shadow tree repairs a lost child from its prevPtr page.
func (ix *Index) bucketForSlot(m metaState, slot uint32) (*buffer.Frame, uint32, error) {
	dF, err := ix.dirChunkFrame(m, slot)
	if err != nil {
		return nil, 0, err
	}
	off := page.HeaderSize + int(slot%uint32(entriesPerDirPage))*entrySize
	cur := getU32(dF.Data[off:])
	prev := getU32(dF.Data[off+4:])
	dF.Unpin()

	bF, err := ix.pool.Get(cur)
	if err != nil {
		return nil, 0, err
	}
	p := bF.Data
	d := bucketDepth(p)
	consistent := p.Valid() && p.Type() == page.TypeBucket &&
		d <= m.globalDepth+8 && // sanity
		(slot&(uint32(1)<<d-1)) == bucketPrefix(p)
	if consistent {
		// Intra-bucket damage: same line-table protocol, same repair.
		if !p.HasFlag(page.FlagLineClean) {
			if p.FindDuplicateSlot() >= 0 {
				p.RepairDuplicates()
				ix.Repairs++
				ix.obs.Eventf(obs.RepairIntraPage, cur, "duplicate line-table entries removed from bucket")
			}
			p.AddFlag(page.FlagLineClean)
			bF.MarkDirty()
		}
		return bF, cur, nil
	}
	if prev == 0 {
		bF.Unpin()
		return nil, 0, fmt.Errorf("%w: bucket %d for slot %d lost with no previous version",
			ErrUnrecoverable, cur, slot)
	}
	// Rebuild from the pre-split bucket: keys re-hashed through the
	// deeper prefix.
	pF, err := ix.pool.Get(prev)
	if err != nil {
		bF.Unpin()
		return nil, 0, err
	}
	if !pF.Data.Valid() || pF.Data.Type() != page.TypeBucket {
		pF.Unpin()
		bF.Unpin()
		return nil, 0, fmt.Errorf("%w: previous bucket %d not durable", ErrUnrecoverable, prev)
	}
	newDepth := bucketDepth(pF.Data) + 1
	newPrefix := slot & (uint32(1)<<newDepth - 1)
	ix.initBucket(bF, newDepth, newPrefix)
	mask := uint32(1)<<newDepth - 1
	for i := 0; i < pF.Data.NKeys(); i++ {
		item := pF.Data.Item(i)
		k, _, err := decodeItem(item)
		if err != nil {
			pF.Unpin()
			bF.Unpin()
			return nil, 0, err
		}
		if hashKey(k)&mask != newPrefix {
			continue
		}
		o, err := bF.Data.AddItem(item)
		if err != nil {
			pF.Unpin()
			bF.Unpin()
			return nil, 0, err
		}
		if err := bF.Data.InsertSlot(bF.Data.NKeys(), o); err != nil {
			pF.Unpin()
			bF.Unpin()
			return nil, 0, err
		}
	}
	pF.Unpin()
	bF.MarkDirty()
	ix.Repairs++
	ix.obs.Eventf(obs.RepairHashBucket, cur, "bucket re-hashed from pre-split bucket %d", prev)
	return bF, cur, nil
}

// Items are encoded as [kLen u16][key][value].
func encodeItem(key, value []byte) []byte {
	buf := make([]byte, 2+len(key)+len(value))
	buf[0] = byte(len(key))
	buf[1] = byte(len(key) >> 8)
	copy(buf[2:], key)
	copy(buf[2+len(key):], value)
	return buf
}

func decodeItem(item []byte) (key, value []byte, err error) {
	if len(item) < 2 {
		return nil, nil, fmt.Errorf("exthash: malformed item")
	}
	k := int(item[0]) | int(item[1])<<8
	if 2+k > len(item) {
		return nil, nil, fmt.Errorf("exthash: malformed item key")
	}
	return item[2 : 2+k], item[2+k:], nil
}

func validate(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeySize || len(value) > MaxValueSize {
		return ErrKeyTooLarge
	}
	return nil
}

// Lookup returns the value stored under key.
func (ix *Index) Lookup(key []byte) ([]byte, error) {
	if err := validate(key, nil); err != nil {
		return nil, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.readMeta()
	if err != nil {
		return nil, err
	}
	slot := hashKey(key) & (uint32(1)<<m.globalDepth - 1)
	bF, _, err := ix.bucketForSlot(m, slot)
	if err != nil {
		return nil, err
	}
	defer bF.Unpin()
	pos, found, err := findInBucket(bF.Data, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	_, v, err := decodeItem(bF.Data.Item(pos))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

func findInBucket(p page.Page, key []byte) (int, bool, error) {
	for i := 0; i < p.NKeys(); i++ {
		k, _, err := decodeItem(p.Item(i))
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(k, key) {
			return i, true, nil
		}
	}
	return 0, false, nil
}

// Insert adds <key,value>; keys are unique.
func (ix *Index) Insert(key, value []byte) error {
	if err := validate(key, value); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for attempt := 0; attempt < maxDepth+2; attempt++ {
		m, err := ix.readMeta()
		if err != nil {
			return err
		}
		h := hashKey(key)
		slot := h & (uint32(1)<<m.globalDepth - 1)
		bF, bNo, err := ix.bucketForSlot(m, slot)
		if err != nil {
			return err
		}
		if _, found, err := findInBucket(bF.Data, key); err != nil {
			bF.Unpin()
			return err
		} else if found {
			bF.Unpin()
			return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
		}
		item := encodeItem(key, value)
		if bF.Data.CanFit(len(item)) {
			off, err := bF.Data.AddItem(item)
			if err != nil {
				bF.Unpin()
				return err
			}
			bF.Data.ClearFlag(page.FlagLineClean)
			if err := bF.Data.InsertSlot(bF.Data.NKeys(), off); err != nil {
				bF.Unpin()
				return err
			}
			bF.Data.AddFlag(page.FlagLineClean)
			bF.MarkDirty()
			bF.Unpin()
			return nil
		}
		// Full: split the bucket (doubling the directory first when its
		// depth is exhausted) and retry.
		err = ix.splitBucket(m, bF, bNo)
		bF.Unpin()
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("exthash: bucket split did not make room for %q (pathological hash collisions)", key)
}

// Delete removes key.
func (ix *Index) Delete(key []byte) error {
	if err := validate(key, nil); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.readMeta()
	if err != nil {
		return err
	}
	slot := hashKey(key) & (uint32(1)<<m.globalDepth - 1)
	bF, _, err := ix.bucketForSlot(m, slot)
	if err != nil {
		return err
	}
	defer bF.Unpin()
	pos, found, err := findInBucket(bF.Data, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	bF.Data.ClearFlag(page.FlagLineClean)
	if err := bF.Data.DeleteSlot(pos); err != nil {
		return err
	}
	bF.Data.AddFlag(page.FlagLineClean)
	bF.MarkDirty()
	return nil
}

// splitBucket implements the shadow split: two new buckets take the keys,
// the old bucket is never modified and becomes the prevPtr for every
// directory slot it used to serve.
func (ix *Index) splitBucket(m metaState, bF *buffer.Frame, bNo uint32) error {
	d := bucketDepth(bF.Data)
	prefix := bucketPrefix(bF.Data)
	if d >= maxDepth {
		return fmt.Errorf("exthash: bucket depth limit reached")
	}
	if d == m.globalDepth {
		if err := ix.doubleDirectory(&m); err != nil {
			return err
		}
	}
	ix.Splits++

	n0, f0, err := ix.allocPage()
	if err != nil {
		return err
	}
	defer f0.Unpin()
	n1, f1, err := ix.allocPage()
	if err != nil {
		return err
	}
	defer f1.Unpin()
	ix.initBucket(f0, d+1, prefix)
	ix.initBucket(f1, d+1, prefix|uint32(1)<<d)

	bit := uint32(1) << d
	for i := 0; i < bF.Data.NKeys(); i++ {
		item := bF.Data.Item(i)
		k, _, err := decodeItem(item)
		if err != nil {
			return err
		}
		dst := f0
		if hashKey(k)&bit != 0 {
			dst = f1
		}
		off, err := dst.Data.AddItem(item)
		if err != nil {
			return err
		}
		if err := dst.Data.InsertSlot(dst.Data.NKeys(), off); err != nil {
			return err
		}
	}
	f0.MarkDirty()
	f1.MarkDirty()

	// Redirect every directory slot that served the old bucket. The
	// prevPtr policy is the paper's §3.3 steps (2)/(3): the old bucket if
	// it is durable, else the existing prevPtr is reused (the old bucket
	// never reached the disk, so its own source still covers the range).
	durable := bF.Data.SyncToken() < ix.counter.Current()
	total := uint32(1) << m.globalDepth
	step := uint32(1) << d
	for slot := prefix; slot < total; slot += step {
		dF, err := ix.dirChunkFrame(m, slot)
		if err != nil {
			return err
		}
		off := page.HeaderSize + int(slot%uint32(entriesPerDirPage))*entrySize
		newCur := n0
		if slot&bit != 0 {
			newCur = n1
		}
		if durable {
			putU32(dF.Data[off+4:], bNo) // step 2: prev := old bucket
		}
		// else: step 3 — keep the existing prevPtr.
		putU32(dF.Data[off:], newCur)
		dF.MarkDirty()
		dF.Unpin()
	}
	return nil
}

// doubleDirectory writes a new, twice-as-large directory to fresh pages
// (shadowing the old one) and swings the meta page's current/previous
// directory pointers with a fresh sync token.
func (ix *Index) doubleDirectory(m *metaState) error {
	if m.globalDepth+1 > maxDepth {
		return fmt.Errorf("exthash: directory depth limit reached")
	}
	ix.Doublings++
	newDepth := m.globalDepth + 1
	total := uint32(1) << newDepth
	chunks := (total + uint32(entriesPerDirPage) - 1) / uint32(entriesPerDirPage)

	tok := ix.counter.Current()
	var firstNo uint32
	for c := uint32(0); c < chunks; c++ {
		no, f, err := ix.allocPage()
		if err != nil {
			return err
		}
		if c == 0 {
			firstNo = no
		} else if no != firstNo+c {
			f.Unpin()
			return fmt.Errorf("exthash: directory chunks not contiguous")
		}
		ix.initDirChunk(f, c)
		f.Data.SetSyncToken(tok)
		base := c * uint32(entriesPerDirPage)
		oldMask := uint32(1)<<m.globalDepth - 1
		for i := uint32(0); i < uint32(entriesPerDirPage) && base+i < total; i++ {
			cur, prev, err := ix.readDirEntryAt(m.dirStart, (base+i)&oldMask, m.globalDepth)
			if err != nil {
				f.Unpin()
				return err
			}
			off := page.HeaderSize + int(i)*entrySize
			putU32(f.Data[off:], cur)
			putU32(f.Data[off+4:], prev)
		}
		f.MarkDirty()
		f.Unpin()
	}

	mF, err := ix.pool.Get(0)
	if err != nil {
		return err
	}
	mF.Data[metaBase+mOffGlobalDepth] = newDepth
	putU32(mF.Data[metaBase+mOffPrevDir:], m.dirStart)
	putU32(mF.Data[metaBase+mOffDirStart:], firstNo)
	putU64(mF.Data[metaBase+mOffDirToken:], tok)
	mF.MarkDirty()
	mF.Unpin()

	m.globalDepth = newDepth
	m.prevDir = m.dirStart
	m.dirStart = firstNo
	m.dirToken = tok
	return nil
}

// Count returns the number of keys (a full sweep over distinct buckets).
func (ix *Index) Count() (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.readMeta()
	if err != nil {
		return 0, err
	}
	seen := make(map[uint32]bool)
	n := 0
	total := uint32(1) << m.globalDepth
	for slot := uint32(0); slot < total; slot++ {
		bF, bNo, err := ix.bucketForSlot(m, slot)
		if err != nil {
			return 0, err
		}
		if !seen[bNo] {
			seen[bNo] = true
			n += bF.Data.NKeys()
		}
		bF.Unpin()
	}
	return n, nil
}

// Check validates the whole structure read-only: every slot resolves to a
// bucket whose prefix matches, every bucket's keys hash into it, and no
// line table is damaged.
func (ix *Index) Check() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.readMeta()
	if err != nil {
		return err
	}
	total := uint32(1) << m.globalDepth
	for slot := uint32(0); slot < total; slot++ {
		chunk := slot / uint32(entriesPerDirPage)
		dF, err := ix.pool.Get(m.dirStart + chunk)
		if err != nil {
			return err
		}
		if !dF.Data.Valid() || dF.Data.Type() != page.TypeHashDir ||
			dF.Data.Special() != chunk || dF.Data.SyncToken() != m.dirToken {
			dF.Unpin()
			return fmt.Errorf("directory chunk %d inconsistent", chunk)
		}
		off := page.HeaderSize + int(slot%uint32(entriesPerDirPage))*entrySize
		cur := getU32(dF.Data[off:])
		dF.Unpin()
		bF, err := ix.pool.Get(cur)
		if err != nil {
			return err
		}
		p := bF.Data
		if !p.Valid() || p.Type() != page.TypeBucket {
			bF.Unpin()
			return fmt.Errorf("slot %d: bucket %d invalid", slot, cur)
		}
		d := bucketDepth(p)
		if d > m.globalDepth {
			bF.Unpin()
			return fmt.Errorf("slot %d: bucket depth %d exceeds global %d", slot, d, m.globalDepth)
		}
		if slot&(uint32(1)<<d-1) != bucketPrefix(p) {
			bF.Unpin()
			return fmt.Errorf("slot %d: bucket prefix %x does not cover it", slot, bucketPrefix(p))
		}
		if p.FindDuplicateSlot() >= 0 {
			bF.Unpin()
			return fmt.Errorf("slot %d: bucket %d has duplicate line-table entries", slot, cur)
		}
		mask := uint32(1)<<d - 1
		for i := 0; i < p.NKeys(); i++ {
			k, _, err := decodeItem(p.Item(i))
			if err != nil {
				bF.Unpin()
				return err
			}
			if hashKey(k)&mask != bucketPrefix(p) {
				bF.Unpin()
				return fmt.Errorf("bucket %d: key %x does not hash into it", cur, k)
			}
		}
		bF.Unpin()
	}
	return nil
}

// GlobalDepth reports the directory depth.
func (ix *Index) GlobalDepth() (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.readMeta()
	if err != nil {
		return 0, err
	}
	return int(m.globalDepth), nil
}

// maxReferencedPage mirrors the tree's open-time scan: allocation must
// never hand out a page number a durable pointer still names.
func (ix *Index) maxReferencedPage() (uint32, error) {
	var maxRef uint32
	note := func(no uint32) {
		if no > maxRef {
			maxRef = no
		}
	}
	mF, err := ix.pool.Get(0)
	if err != nil {
		return 0, err
	}
	if mF.Data.IsZeroed() {
		mF.Unpin()
		return 0, nil
	}
	g := mF.Data[metaBase+mOffGlobalDepth]
	dirStart := getU32(mF.Data[metaBase+mOffDirStart:])
	prevDir := getU32(mF.Data[metaBase+mOffPrevDir:])
	mF.Unpin()
	if dirStart == 0 {
		return 0, nil
	}
	total := uint32(1) << g
	chunks := (total + uint32(entriesPerDirPage) - 1) / uint32(entriesPerDirPage)
	note(dirStart + chunks - 1)
	if prevDir != 0 {
		note(prevDir + chunks) // previous directory is at most as large
	}
	limit := ix.pool.Disk().NumPages()
	for c := uint32(0); c < chunks; c++ {
		no := dirStart + c
		if no >= limit {
			continue
		}
		f, err := ix.pool.Get(no)
		if err != nil {
			continue
		}
		if f.Data.Valid() && f.Data.Type() == page.TypeHashDir {
			n := int(total) - int(c)*entriesPerDirPage
			if n > entriesPerDirPage {
				n = entriesPerDirPage
			}
			for i := 0; i < n; i++ {
				off := page.HeaderSize + i*entrySize
				note(getU32(f.Data[off:]))
				note(getU32(f.Data[off+4:]))
			}
		}
		f.Unpin()
	}
	return maxRef, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
