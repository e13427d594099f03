package btree

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/page"
	"repro/internal/synctoken"
)

// Page 0 of every index file is the meta page. Besides identifying the
// variant it holds the root pointer, and — because the root has no parent
// whose key ranges could vouch for it — a previous-root pointer and the
// root's expected sync token, playing the role the <childPtr, prevPtr>
// pairs play for internal keys (§3.3: "Like internal page keys, the root
// pointer must contain a previous and current page pointer").
//
// The meta page also persists the sync-counter state (implementing
// synctoken.Store) and, on clean shutdown, the freelist with its key
// ranges (§3.3.3).

// Variant selects the index algorithm.
type Variant uint8

// Index variants.
const (
	// Normal is the ordinary B-link tree with no crash protection.
	Normal Variant = iota
	// Shadow is Technique One: shadow-page indexes (§3.3).
	Shadow
	// Reorg is Technique Two: page-reorganization indexes (§3.4).
	Reorg
	// Hybrid uses shadowing at the leaf level, where splits are common,
	// and page reorganization above it — the combination §1 suggests to
	// get shadow's split speed with reorg's fanout near the root.
	Hybrid
)

func (v Variant) String() string {
	switch v {
	case Normal:
		return "normal"
	case Shadow:
		return "shadow"
	case Reorg:
		return "reorg"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// ParseVariant is the inverse of Variant.String: it maps "normal",
// "shadow", "reorg" or "hybrid" to its Variant.
func ParseVariant(name string) (Variant, error) {
	for v := Normal; v <= Hybrid; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("btree: unknown variant %q", name)
}

// Meta page body layout (relative to page.HeaderSize):
const (
	mOffVariant   = 0  // uint8
	mOffRoot      = 4  // uint32
	mOffPrevRoot  = 8  // uint32
	mOffRootToken = 12 // uint64
	mOffCtrMax    = 20 // uint64 sync-counter stable maximum
	mOffCtrGlobal = 28 // uint64 (valid when clean)
	mOffCtrCrash  = 36 // uint64 (valid when clean)
	mOffCtrFlags  = 44 // uint8: bit0 = saved, bit1 = clean
	mOffFreeCount = 46 // uint16 persisted freelist entries
	mOffFreeData  = 48 // entries: [pageNo u32][loLen u16][lo][hiLen u16][hi]... hiLen 0xFFFF = nil
)

const metaBase = page.HeaderSize

type metaPage struct{ p page.Page }

func (m metaPage) variant() Variant     { return Variant(m.p[metaBase+mOffVariant]) }
func (m metaPage) setVariant(v Variant) { m.p[metaBase+mOffVariant] = uint8(v) }

func (m metaPage) root() uint32      { return u32At(m.p, metaBase+mOffRoot) }
func (m metaPage) setRoot(no uint32) { putU32(m.p[metaBase+mOffRoot:], no) }

func (m metaPage) prevRoot() uint32      { return u32At(m.p, metaBase+mOffPrevRoot) }
func (m metaPage) setPrevRoot(no uint32) { putU32(m.p[metaBase+mOffPrevRoot:], no) }

func (m metaPage) rootToken() uint64 { return u64At(m.p, metaBase+mOffRootToken) }
func (m metaPage) setRootToken(t uint64) {
	putU64(m.p[metaBase+mOffRootToken:], t)
}

func u64At(b []byte, i int) uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(b[i+k]) << (8 * k)
	}
	return v
}

func putU64(b []byte, v uint64) {
	for k := 0; k < 8; k++ {
		b[k] = byte(v >> (8 * k))
	}
}

// metaStore adapts the meta page to synctoken.Store. Saves write the meta
// frame and force an immediate disk write and sync of just that page, so
// the stable maximum is durable before tokens from its range are used.
type metaStore struct {
	t *Tree
}

// Load implements synctoken.Store.
func (s metaStore) Load() (synctoken.State, bool, error) {
	f, err := s.t.pool.Get(0)
	if err != nil {
		return synctoken.State{}, false, err
	}
	defer f.Unpin()
	m := metaPage{f.Data}
	if f.Data.IsZeroed() {
		return synctoken.State{}, false, nil
	}
	flags := f.Data[metaBase+mOffCtrFlags]
	st := synctoken.State{
		Max:       u64At(f.Data, metaBase+mOffCtrMax),
		Global:    u64At(f.Data, metaBase+mOffCtrGlobal),
		LastCrash: u64At(f.Data, metaBase+mOffCtrCrash),
		Clean:     flags&2 != 0,
	}
	_ = m
	return st, flags&1 != 0, nil
}

// Save implements synctoken.Store. The meta page is written through to the
// disk and synced immediately: the maximum sync counter must be durable
// before any token below it is stamped into a page (§3.2).
func (s metaStore) Save(st synctoken.State) error {
	f, err := s.t.pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Unpin()
	// Shared-mode descents read the meta page under its read latch.
	f.WLatch()
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
		metaPage{f.Data}.setVariant(s.t.variant)
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
	f.WUnlatch()
	// Write-through: everything currently dirty becomes durable, which
	// is always safe under the paper's model (a sync can happen at any
	// time) and keeps the counter invariant.
	return s.t.pool.SyncAll()
}

// saveFreelist serializes the freelist (with key ranges, §3.3.3) into the
// meta page on clean shutdown. Entries that do not fit are dropped: a
// leaked free page is safe and will be recovered by the garbage collector.
func (m metaPage) saveFreelist(entries []freelist.Entry) int {
	avail := page.Size - (metaBase + mOffFreeData)
	buf := m.p[metaBase+mOffFreeData:]
	n := 0
	off := 0
	for _, e := range entries {
		need := 4 + 2 + len(e.Lo) + 2 + len(e.Hi)
		if off+need > avail || n == 0xFFFF {
			break
		}
		putU32(buf[off:], e.PageNo)
		off += 4
		putU16(buf[off:], len(e.Lo))
		off += 2
		copy(buf[off:], e.Lo)
		off += len(e.Lo)
		if e.Hi == nil {
			putU16(buf[off:], 0xFFFF)
			off += 2
		} else {
			putU16(buf[off:], len(e.Hi))
			off += 2
			copy(buf[off:], e.Hi)
			off += len(e.Hi)
		}
		n++
	}
	putU16(m.p[metaBase+mOffFreeCount:], n)
	return n
}

// loadFreelist deserializes the persisted freelist.
func (m metaPage) loadFreelist() []freelist.Entry {
	n := getU16(m.p[metaBase+mOffFreeCount:])
	buf := m.p[metaBase+mOffFreeData:]
	off := 0
	out := make([]freelist.Entry, 0, n)
	for i := 0; i < n; i++ {
		if off+6 > len(buf) {
			break
		}
		var e freelist.Entry
		e.PageNo = u32At(buf, off)
		off += 4
		loLen := getU16(buf[off:])
		off += 2
		if off+loLen > len(buf) {
			break
		}
		e.Lo = cloneBytes(buf[off : off+loLen])
		off += loLen
		if off+2 > len(buf) {
			break
		}
		hiLen := getU16(buf[off:])
		off += 2
		if hiLen == 0xFFFF {
			e.Hi = nil
		} else {
			if off+hiLen > len(buf) {
				break
			}
			e.Hi = cloneBytes(buf[off : off+hiLen])
			off += hiLen
		}
		out = append(out, e)
	}
	return out
}

// clearFreelist removes the persisted freelist. Per §3.3.3 this must be
// made durable before any listed page is reallocated, or a later crash
// would resurrect the list and double-allocate its pages.
func (m metaPage) clearFreelist() {
	putU16(m.p[metaBase+mOffFreeCount:], 0)
}
