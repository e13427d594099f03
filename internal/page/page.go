// Package page implements the slotted on-disk page format shared by every
// index variant and by the heap.
//
// The layout follows the description in Sullivan & Olson (ICDE 1992),
// section 3.1: each page carries a header describing space allocation, a
// line table of intra-page offsets recording key order, and an item area
// that grows downward from the end of the page. Reordering keys touches
// only the line table, never the stored <key,data> items.
//
// The header additionally carries the recovery metadata introduced by the
// paper: a sync token (§3.2), the prevNKeys and newPage fields used by the
// page-reorganization algorithm (§3.4), and peer pointers with per-pointer
// sync tokens used by B-link trees (§3.5.1).
//
// Format version 2 additionally carries a CRC-32C checksum in the header
// (bytes 56–59, previously reserved). The checksum covers the whole page
// except the checksum field itself; it is stamped by the storage layer on
// every page write and lets readers detect torn writes and bit rot — the
// two failures the paper's §2 model assumes away.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// FormatVersion identifies the on-disk page layout. Version 2 added the
// header checksum; version-1 images (no checksum) are not readable.
const FormatVersion = 2

// Size is the fixed size of every page, in bytes.
const Size = 8192

// Magic identifies an initialized page. A page of all zero bytes (magic 0)
// is treated as uninitialized; recovery interprets such a page as a child
// that was never written before a crash.
const Magic uint32 = 0xB1DE1992

// Type describes what a page holds.
type Type uint8

// Page types.
const (
	TypeInvalid  Type = 0 // zeroed / never written
	TypeMeta     Type = 1 // index meta page (page 0 of an index file)
	TypeInternal Type = 2 // internal B-tree page: keys point to child pages
	TypeLeaf     Type = 3 // leaf B-tree page: keys point to heap TIDs
	TypeFree     Type = 4 // page on the freelist
	TypeHeap     Type = 5 // heap relation page
	TypeHashDir  Type = 6 // extensible-hash directory chunk
	TypeBucket   Type = 7 // extensible-hash bucket
)

func (t Type) String() string {
	switch t {
	case TypeInvalid:
		return "invalid"
	case TypeMeta:
		return "meta"
	case TypeInternal:
		return "internal"
	case TypeLeaf:
		return "leaf"
	case TypeFree:
		return "free"
	case TypeHeap:
		return "heap"
	case TypeHashDir:
		return "hashdir"
	case TypeBucket:
		return "bucket"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Flags stored in the page header.
const (
	// FlagShadow marks pages belonging to a shadow-page index, whose
	// internal items carry a prevPtr in addition to the child pointer.
	FlagShadow uint16 = 1 << 0
	// 1 << 1 is retired: it marked a leaf verified after a crash (§3.5.1)
	// and wrongly outlived the next one. Old images may carry it; do not
	// reuse it.
	// FlagPeerSuspect marks a leaf rebuilt by crash recovery: its peer
	// links were restored from a pre-split image and the chain into it
	// may still thread through a stale duplicate. The first update must
	// run the §3.5.1 verification even though the page's sync token is
	// current (it was stamped by the repair itself).
	FlagPeerSuspect uint16 = 1 << 2
	// FlagLineClean is cleared immediately before every line-table
	// update and set again when the update completes. A page image with
	// the flag clear was snapshotted mid-update — exactly the intra-page
	// inconsistency of §3.3.1 — so readers scan for duplicate entries
	// only on such pages instead of on every access.
	FlagLineClean uint16 = 1 << 3
)

// Header field offsets. The header occupies the first HeaderSize bytes.
const (
	offMagic     = 0  // uint32
	offType      = 4  // uint8
	offLevel     = 5  // uint8 (0 = leaf level)
	offFlags     = 6  // uint16
	offSyncToken = 8  // uint64 (§3.2)
	offNKeys     = 16 // uint16
	offPrevNKeys = 18 // uint16 (§3.4; nonzero => backup keys present)
	offNewPage   = 20 // uint32 (§3.4 / §3.6; 0 = nil)
	offLeftPeer  = 24 // uint32 (0 = none)
	offRightPeer = 28 // uint32 (0 = none)
	offLeftTok   = 32 // uint64 peer-pointer sync token (§3.5.1)
	offRightTok  = 40 // uint64 peer-pointer sync token (§3.5.1)
	offLower     = 48 // uint16 first free byte after the line table
	offUpper     = 50 // uint16 start of the item area
	offSpecial   = 52 // uint32 variant-specific
	offChecksum  = 56 // uint32 CRC-32C over the page minus this field (format v2)
	offReserved  = 60 // uint32

	// HeaderSize is the number of bytes before the line table.
	HeaderSize = 64
)

// InvalidPageNo is the nil page number. Page 0 of every index file is the
// meta page, so 0 never names an ordinary tree page and doubles as "none".
const InvalidPageNo uint32 = 0

// ErrCorrupt reports structurally impossible page contents (as opposed to
// the recoverable inconsistencies the paper's algorithms repair).
var ErrCorrupt = errors.New("page: corrupt")

// Page is a fixed-size byte buffer interpreted through accessor methods.
// All multi-byte fields are little-endian.
type Page []byte

// New returns a zeroed page buffer.
func New() Page { return make(Page, Size) }

// Init formats p as an empty page of the given type and level.
func (p Page) Init(t Type, level uint8) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint32(p[offMagic:], Magic)
	p[offType] = uint8(t)
	p[offLevel] = level
	p.SetLower(HeaderSize)
	p.SetUpper(Size)
}

// IsZeroed reports whether the page was never initialized (all-zero magic).
// Recovery treats a zeroed page as a lost split half (§3.3.1).
func (p Page) IsZeroed() bool {
	return binary.LittleEndian.Uint32(p[offMagic:]) == 0
}

// Valid reports whether the page carries the expected magic number.
func (p Page) Valid() bool {
	return binary.LittleEndian.Uint32(p[offMagic:]) == Magic
}

// Type returns the page type.
func (p Page) Type() Type { return Type(p[offType]) }

// SetType updates the page type.
func (p Page) SetType(t Type) { p[offType] = uint8(t) }

// Level returns the tree level: 0 for leaves, increasing toward the root.
func (p Page) Level() uint8 { return p[offLevel] }

// SetLevel updates the tree level.
func (p Page) SetLevel(l uint8) { p[offLevel] = l }

// Flags returns the header flag bits.
func (p Page) Flags() uint16 { return binary.LittleEndian.Uint16(p[offFlags:]) }

// SetFlags replaces the header flag bits.
func (p Page) SetFlags(f uint16) { binary.LittleEndian.PutUint16(p[offFlags:], f) }

// HasFlag reports whether all bits in f are set.
func (p Page) HasFlag(f uint16) bool { return p.Flags()&f == f }

// AddFlag sets the bits in f.
func (p Page) AddFlag(f uint16) { p.SetFlags(p.Flags() | f) }

// ClearFlag clears the bits in f.
func (p Page) ClearFlag(f uint16) { p.SetFlags(p.Flags() &^ f) }

// SyncToken returns the sync token recorded when the page was last
// (re)initialized by a split or repair (§3.2).
func (p Page) SyncToken() uint64 { return binary.LittleEndian.Uint64(p[offSyncToken:]) }

// SetSyncToken records the page's sync token.
func (p Page) SetSyncToken(t uint64) { binary.LittleEndian.PutUint64(p[offSyncToken:], t) }

// NKeys returns the number of live line-table entries.
func (p Page) NKeys() int { return int(binary.LittleEndian.Uint16(p[offNKeys:])) }

// SetNKeys updates the live line-table entry count.
func (p Page) SetNKeys(n int) { binary.LittleEndian.PutUint16(p[offNKeys:], uint16(n)) }

// PrevNKeys returns the pre-split key count while backup keys are retained
// by the page-reorganization algorithm; zero means the page is safe for
// update (§3.4).
func (p Page) PrevNKeys() int { return int(binary.LittleEndian.Uint16(p[offPrevNKeys:])) }

// SetPrevNKeys updates the retained pre-split key count.
func (p Page) SetPrevNKeys(n int) { binary.LittleEndian.PutUint16(p[offPrevNKeys:], uint16(n)) }

// NewPage returns the page number of the split sibling recorded by the
// reorganization algorithm, or of the new left page recorded for
// Lehman-Yao style horizontal movement in shadow trees (§3.4, §3.6).
func (p Page) NewPage() uint32 { return binary.LittleEndian.Uint32(p[offNewPage:]) }

// SetNewPage records the split sibling / new-page pointer.
func (p Page) SetNewPage(n uint32) { binary.LittleEndian.PutUint32(p[offNewPage:], n) }

// LeftPeer returns the left peer pointer (B-link chain), 0 if none.
func (p Page) LeftPeer() uint32 { return binary.LittleEndian.Uint32(p[offLeftPeer:]) }

// SetLeftPeer updates the left peer pointer.
func (p Page) SetLeftPeer(n uint32) { binary.LittleEndian.PutUint32(p[offLeftPeer:], n) }

// RightPeer returns the right peer pointer (B-link chain), 0 if none.
func (p Page) RightPeer() uint32 { return binary.LittleEndian.Uint32(p[offRightPeer:]) }

// SetRightPeer updates the right peer pointer.
func (p Page) SetRightPeer(n uint32) { binary.LittleEndian.PutUint32(p[offRightPeer:], n) }

// LeftPeerToken returns the sync token associated with the left peer
// pointer; matching tokens on both ends prove the link consistent (§3.5.1).
func (p Page) LeftPeerToken() uint64 { return binary.LittleEndian.Uint64(p[offLeftTok:]) }

// SetLeftPeerToken updates the left peer-pointer sync token.
func (p Page) SetLeftPeerToken(t uint64) { binary.LittleEndian.PutUint64(p[offLeftTok:], t) }

// RightPeerToken returns the sync token associated with the right peer
// pointer.
func (p Page) RightPeerToken() uint64 { return binary.LittleEndian.Uint64(p[offRightTok:]) }

// SetRightPeerToken updates the right peer-pointer sync token.
func (p Page) SetRightPeerToken(t uint64) { binary.LittleEndian.PutUint64(p[offRightTok:], t) }

// Lower returns the offset of the first free byte after the line table.
func (p Page) Lower() int { return int(binary.LittleEndian.Uint16(p[offLower:])) }

// SetLower updates the lower free-space bound.
func (p Page) SetLower(n int) { binary.LittleEndian.PutUint16(p[offLower:], uint16(n)) }

// Upper returns the offset of the start of the item area.
func (p Page) Upper() int { return int(binary.LittleEndian.Uint16(p[offUpper:])) }

// SetUpper updates the upper free-space bound.
func (p Page) SetUpper(n int) { binary.LittleEndian.PutUint16(p[offUpper:], uint16(n)) }

// castagnoli is the CRC-32C polynomial table. CRC-32C is the checksum used
// by iSCSI and ext4 metadata and has hardware support (SSE4.2 crc32
// instruction) that Go's hash/crc32 exploits.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ComputeChecksum returns the CRC-32C of the page contents excluding the
// checksum field itself.
func (p Page) ComputeChecksum() uint32 {
	c := crc32.Update(0, castagnoli, p[:offChecksum])
	return crc32.Update(c, castagnoli, p[offChecksum+4:])
}

// Checksum returns the stored header checksum.
func (p Page) Checksum() uint32 { return binary.LittleEndian.Uint32(p[offChecksum:]) }

// SetChecksum stores a header checksum.
func (p Page) SetChecksum(c uint32) { binary.LittleEndian.PutUint32(p[offChecksum:], c) }

// UpdateChecksum recomputes and stores the header checksum. The storage
// layer calls this on every page write (the single choke point); code that
// bypasses the storage layer to craft raw images must call it explicitly.
func (p Page) UpdateChecksum() { p.SetChecksum(p.ComputeChecksum()) }

// ChecksumOK reports whether the stored checksum matches the contents. An
// all-zero page verifies trivially (an unwritten page has no checksum to
// check); any other mismatch means the durable image is not one the DBMS
// ever handed to the storage layer — a torn write or media corruption.
func (p Page) ChecksumOK() bool {
	if p.IsZeroed() {
		return true
	}
	return p.Checksum() == p.ComputeChecksum()
}

// Special returns the variant-specific header word.
func (p Page) Special() uint32 { return binary.LittleEndian.Uint32(p[offSpecial:]) }

// SetSpecial updates the variant-specific header word.
func (p Page) SetSpecial(v uint32) { binary.LittleEndian.PutUint32(p[offSpecial:], v) }

// FreeSpace returns the number of free bytes between the line table and the
// item area.
func (p Page) FreeSpace() int {
	f := p.Upper() - p.Lower()
	if f < 0 {
		return 0
	}
	return f
}

// Clone returns an independent copy of the page contents.
func (p Page) Clone() Page {
	q := New()
	copy(q, p)
	return q
}

// CheckHeader validates structural header invariants. It returns an error
// wrapping ErrCorrupt when the header describes an impossible layout; it is
// intentionally silent about the *recoverable* inconsistencies (duplicate
// line-table offsets, wrong key ranges) that the paper's algorithms detect
// and repair at a higher level.
func (p Page) CheckHeader() error {
	if len(p) != Size {
		return fmt.Errorf("%w: page buffer is %d bytes, want %d", ErrCorrupt, len(p), Size)
	}
	if p.IsZeroed() {
		return nil // uninitialized pages are legal (recovery handles them)
	}
	if !p.Valid() {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(p[offMagic:]))
	}
	lo, up := p.Lower(), p.Upper()
	if lo < HeaderSize || lo > Size || up < lo || up > Size {
		return fmt.Errorf("%w: free space bounds lower=%d upper=%d", ErrCorrupt, lo, up)
	}
	n := p.NKeys()
	if HeaderSize+2*n > lo {
		return fmt.Errorf("%w: %d line-table entries do not fit below lower=%d", ErrCorrupt, n, lo)
	}
	return nil
}
