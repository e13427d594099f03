// Package rtree applies the paper's shadow-paging recovery technique to an
// R-tree (Guttman, SIGMOD 1984 — the paper's reference [6]); §1 claims the
// techniques carry over, and this package carries them.
//
// The transposition:
//
//   - Internal entries are <rect, childPtr, prevPtr> triples — the paper's
//     shadow triples with a bounding rectangle in place of the key.
//   - A node split allocates two NEW pages and never touches the old node,
//     whose page becomes the prevPtr of both resulting entries (§3.3 steps
//     1–5, including the reuse rule when the split node was never synced).
//   - Detection (§3.3.1): a directory entry pointing at a zeroed or
//     malformed page is an interrupted split. Repair "reexecutes the
//     incomplete page split operation": the quadratic split is a
//     deterministic function of the pre-split node's entries, so re-running
//     it on the prevPtr node regenerates both halves bit-for-bit.
//   - The rectangle analogue of a key-range violation — a child whose
//     entries outgrew the parent rectangle because the crash kept the child
//     but lost the parent's AdjustTree update — is repaired by WIDENING the
//     parent entry, which is always legal in an R-tree (the entries that
//     forced the widening were uncommitted, and over-covering rectangles
//     only cost search pruning, never correctness).
//
// Like the extensible hash index, freed pages are not reused (there is no
// key-range analogue precise enough to make stale images detectable);
// reclamation is vacuum work.
package rtree

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/synctoken"
)

// Errors.
var (
	ErrNotFound      = errors.New("rtree: entry not found")
	ErrUnrecoverable = errors.New("rtree: unrecoverable inconsistency")
)

// Rect is an axis-aligned rectangle with inclusive integer bounds.
type Rect struct {
	MinX, MinY, MaxX, MaxY int32
}

// Valid reports whether the rectangle is well-formed.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Intersects reports whether two rectangles overlap (inclusive bounds).
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	return r.MinX <= o.MinX && o.MaxX <= r.MaxX && r.MinY <= o.MinY && o.MaxY <= r.MaxY
}

// Union returns the bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{min32(r.MinX, o.MinX), min32(r.MinY, o.MinY), max32(r.MaxX, o.MaxX), max32(r.MaxY, o.MaxY)}
}

// Area returns the rectangle's area.
func (r Rect) Area() int64 {
	return int64(r.MaxX-r.MinX) * int64(r.MaxY-r.MinY)
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Entries are fixed-size, stored through the page line table:
//
//	leaf:     rect (16) + id (8)            = 24 bytes
//	internal: rect (16) + child(4) + prev(4) = 24 bytes
const entryPayload = 24

// entry is a decoded node entry.
type entry struct {
	rect  Rect
	id    uint64 // leaf payload
	child uint32 // internal payload
	prev  uint32
}

func encodeRect(b []byte, r Rect) {
	putI32(b[0:], r.MinX)
	putI32(b[4:], r.MinY)
	putI32(b[8:], r.MaxX)
	putI32(b[12:], r.MaxY)
}

func decodeRect(b []byte) Rect {
	return Rect{getI32(b[0:]), getI32(b[4:]), getI32(b[8:]), getI32(b[12:])}
}

func encodeLeafEntry(e entry) []byte {
	buf := make([]byte, entryPayload)
	encodeRect(buf, e.rect)
	putU64(buf[16:], e.id)
	return buf
}

func encodeInternalEntry(e entry) []byte {
	buf := make([]byte, entryPayload)
	encodeRect(buf, e.rect)
	putU32(buf[16:], e.child)
	putU32(buf[20:], e.prev)
	return buf
}

func decodeLeafEntry(item []byte) (entry, error) {
	if len(item) != entryPayload {
		return entry{}, fmt.Errorf("rtree: leaf entry of %d bytes", len(item))
	}
	return entry{rect: decodeRect(item), id: getU64(item[16:])}, nil
}

func decodeInternalEntry(item []byte) (entry, error) {
	if len(item) != entryPayload {
		return entry{}, fmt.Errorf("rtree: internal entry of %d bytes", len(item))
	}
	return entry{rect: decodeRect(item), child: getU32(item[16:]), prev: getU32(item[20:])}, nil
}

// Meta page layout (page 0), mirroring the B-tree's.
const (
	mOffRoot      = 0
	mOffPrevRoot  = 4
	mOffRootToken = 8
	mOffHeight    = 16 // uint8
	mOffCtrMax    = 20
	mOffCtrGlobal = 28
	mOffCtrCrash  = 36
	mOffCtrFlags  = 44
	metaBase      = page.HeaderSize
)

// maxEntries caps node fanout; minFill is Guttman's m parameter.
var (
	maxEntries = (page.Size - page.HeaderSize - 64) / (entryPayload + 4)
	minFill    = maxEntries / 4
)

// Tree is one shadow-recoverable R-tree.
type Tree struct {
	pool    *buffer.Pool
	counter *synctoken.Counter

	mu      sync.Mutex
	nextNew uint32
	obs     *obs.Recorder

	// Stats.
	Splits, Repairs, Widenings uint64
}

// Open opens (creating if empty) an R-tree on disk. rec, when non-nil,
// receives the tree's and its buffer pool's events and counters from the
// first read Open makes; nil disables recording.
func Open(disk storage.Disk, poolSize int, rec *obs.Recorder) (*Tree, error) {
	t := &Tree{pool: buffer.NewPool(disk, poolSize), obs: rec}
	t.pool.SetObs(rec)
	f, err := t.pool.Get(0)
	if err != nil {
		return nil, err
	}
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
		f.MarkDirty()
	}
	f.Unpin()
	ctr, err := synctoken.Open(metaStore{t})
	if err != nil {
		return nil, err
	}
	t.counter = ctr
	t.nextNew = disk.NumPages()
	if t.nextNew < 1 {
		t.nextNew = 1
	}
	if maxRef, err := t.maxReferencedPage(); err != nil {
		return nil, err
	} else if maxRef+1 > t.nextNew {
		t.nextNew = maxRef + 1
	}
	return t, nil
}

type metaStore struct{ t *Tree }

func (s metaStore) Load() (synctoken.State, bool, error) {
	f, err := s.t.pool.Get(0)
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
	f, err := s.t.pool.Get(0)
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
	return s.t.pool.SyncAll()
}

// Sync is the commit-time force.
func (t *Tree) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncLocked()
}

func (t *Tree) syncLocked() error {
	if err := t.pool.SyncAll(); err != nil {
		return err
	}
	return t.counter.Advance()
}

// Pool exposes the buffer pool for crash injection.
func (t *Tree) Pool() *buffer.Pool { return t.pool }

func (t *Tree) allocPage() (uint32, *buffer.Frame, error) {
	no := t.nextNew
	t.nextNew++
	f, err := t.pool.NewPage(no)
	if err != nil {
		return 0, nil, err
	}
	return no, f, nil
}

func (t *Tree) initNode(f *buffer.Frame, level uint8) {
	typ := page.TypeLeaf
	if level > 0 {
		typ = page.TypeInternal
	}
	f.Data.Init(typ, level)
	f.Data.AddFlag(page.FlagShadow | page.FlagLineClean)
	f.Data.SetSyncToken(t.counter.Current())
	f.MarkDirty()
}

// --- meta helpers ---

type metaState struct {
	root      uint32
	prevRoot  uint32
	rootToken uint64
	height    uint8
}

func (t *Tree) readMeta() (metaState, error) {
	f, err := t.pool.Get(0)
	if err != nil {
		return metaState{}, err
	}
	defer f.Unpin()
	return metaState{
		root:      getU32(f.Data[metaBase+mOffRoot:]),
		prevRoot:  getU32(f.Data[metaBase+mOffPrevRoot:]),
		rootToken: getU64(f.Data[metaBase+mOffRootToken:]),
		height:    f.Data[metaBase+mOffHeight],
	}, nil
}

func (t *Tree) writeMeta(m metaState) error {
	f, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Unpin()
	putU32(f.Data[metaBase+mOffRoot:], m.root)
	putU32(f.Data[metaBase+mOffPrevRoot:], m.prevRoot)
	putU64(f.Data[metaBase+mOffRootToken:], m.rootToken)
	f.Data[metaBase+mOffHeight] = m.height
	f.MarkDirty()
	return nil
}

// nodeEntries decodes all live entries of a node.
func nodeEntries(p page.Page) ([]entry, error) {
	out := make([]entry, 0, p.NKeys())
	leaf := p.Type() == page.TypeLeaf
	for i := 0; i < p.NKeys(); i++ {
		item := p.Item(i)
		if item == nil {
			return nil, fmt.Errorf("%w: unreadable entry %d", ErrUnrecoverable, i)
		}
		var e entry
		var err error
		if leaf {
			e, err = decodeLeafEntry(item)
		} else {
			e, err = decodeInternalEntry(item)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// appendEntry adds an entry to a node with the crash-careful protocol.
func appendEntry(f *buffer.Frame, payload []byte) error {
	off, err := f.Data.AddItem(payload)
	if err != nil {
		return err
	}
	f.Data.ClearFlag(page.FlagLineClean)
	if err := f.Data.InsertSlot(f.Data.NKeys(), off); err != nil {
		return err
	}
	f.Data.AddFlag(page.FlagLineClean)
	f.MarkDirty()
	return nil
}

// mbr returns the bounding rectangle of a node's entries.
func mbr(entries []entry) Rect {
	if len(entries) == 0 {
		return Rect{}
	}
	r := entries[0].rect
	for _, e := range entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

func putI32(b []byte, v int32) { putU32(b, uint32(v)) }
func getI32(b []byte) int32    { return int32(getU32(b)) }
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

// maxReferencedPage walks the durable structure so fresh allocations never
// collide with pages named by surviving pointers.
func (t *Tree) maxReferencedPage() (uint32, error) {
	var maxRef uint32
	note := func(no uint32) {
		if no > maxRef {
			maxRef = no
		}
	}
	m, err := t.readMeta()
	if err != nil {
		return 0, err
	}
	note(m.root)
	note(m.prevRoot)
	seen := map[uint32]bool{0: true}
	var walk func(no uint32)
	walk = func(no uint32) {
		if no == 0 || seen[no] || no >= t.pool.Disk().NumPages() {
			return
		}
		seen[no] = true
		f, err := t.pool.Get(no)
		if err != nil {
			return
		}
		defer f.Unpin()
		if !f.Data.Valid() || f.Data.Type() != page.TypeInternal {
			return
		}
		for i := 0; i < f.Data.NKeys(); i++ {
			if item := f.Data.Item(i); item != nil && len(item) == entryPayload {
				child := getU32(item[16:])
				prev := getU32(item[20:])
				note(child)
				note(prev)
				walk(child)
			}
		}
	}
	walk(m.root)
	walk(m.prevRoot)
	return maxRef, nil
}
