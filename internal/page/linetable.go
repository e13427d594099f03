package page

import (
	"fmt"
)

// This file implements the line table: an ordered array of uint16 offsets
// that records key order without moving the stored items (§3.1). The insert
// protocol follows §3.3 step (4) exactly, so that a page written to stable
// storage in the middle of an insert is left in a state the intra-page
// repair of §3.3.2 can fix: the only possible damage is a pair of adjacent
// entries holding the same offset.

// slotBase returns the byte offset of line-table entry i.
func slotBase(i int) int { return HeaderSize + 2*i }

// Slot returns the item offset stored in line-table entry i. The index may
// address backup entries beyond NKeys (used by the page-reorganization
// algorithm), as long as it stays below the lower bound. An entry past the
// end of the page, which only a damaged NKeys or PrevNKeys can name, reads
// as offset 0: no item.
func (p Page) Slot(i int) int {
	b := slotBase(i)
	if b+1 >= len(p) {
		return 0
	}
	return int(uint16(p[b]) | uint16(p[b+1])<<8)
}

// setSlot stores an item offset in line-table entry i.
func (p Page) setSlot(i, off int) {
	p[slotBase(i)] = byte(off)
	p[slotBase(i)+1] = byte(off >> 8)
}

// Item returns the raw item bytes referenced by line-table entry i. Items
// are stored as a uint16 length prefix followed by opaque payload bytes
// owned by the index layer.
func (p Page) Item(i int) []byte {
	off := p.Slot(i)
	return p.itemAt(off)
}

func (p Page) itemAt(off int) []byte {
	if off < HeaderSize || off+2 > Size {
		return nil
	}
	n := int(uint16(p[off]) | uint16(p[off+1])<<8)
	if off+2+n > Size {
		return nil
	}
	return p[off+2 : off+2+n]
}

// itemSize returns the on-page footprint of an item with the given payload
// length.
func itemSize(payloadLen int) int { return 2 + payloadLen }

// CanFit reports whether an item with the given payload length, plus a new
// line-table entry, fits in the page's free space.
func (p Page) CanFit(payloadLen int) bool {
	return p.FreeSpace() >= itemSize(payloadLen)+2
}

// AddItem copies payload into the item area and returns its offset. It does
// not touch the line table; pairing the offset with a slot is a separate
// step so a mid-insert snapshot never references a half-written item.
func (p Page) AddItem(payload []byte) (off int, err error) {
	need := itemSize(len(payload))
	if p.Upper()-p.Lower() < need {
		return 0, fmt.Errorf("page: item of %d bytes does not fit (free %d)", need, p.FreeSpace())
	}
	off = p.Upper() - need
	p[off] = byte(len(payload))
	p[off+1] = byte(len(payload) >> 8)
	copy(p[off+2:], payload)
	p.SetUpper(off)
	return off, nil
}

// ReserveItem allocates space in the item area for a payload of the given
// length and returns its offset plus the payload slice for the caller to
// fill in place — the zero-copy variant of AddItem. Like AddItem, it does
// not touch the line table: nothing references the reserved bytes until
// the caller links the offset with InsertSlot, so a mid-fill snapshot is
// harmless (§3.3 step 4 ordering is preserved by the caller).
func (p Page) ReserveItem(payloadLen int) (off int, payload []byte, err error) {
	need := itemSize(payloadLen)
	if p.Upper()-p.Lower() < need {
		return 0, nil, fmt.Errorf("page: item of %d bytes does not fit (free %d)", need, p.FreeSpace())
	}
	off = p.Upper() - need
	p[off] = byte(payloadLen)
	p[off+1] = byte(payloadLen >> 8)
	p.SetUpper(off)
	return off, p[off+2 : off+2+payloadLen], nil
}

// InsertSlot links an already-added item (at byte offset off) into the line
// table at position pos, shifting later entries right. It follows the
// crash-careful order of §3.3 step (4):
//
//  1. the last entry is copied one element beyond the line table,
//  2. nKeys is incremented,
//  3. entries in (pos, last] are copied one entry to the right,
//  4. the new offset is stored at pos.
//
// Any prefix of these steps leaves the page either unchanged or with a
// single adjacent duplicate that RepairDuplicates removes.
func (p Page) InsertSlot(pos, off int) error {
	n := p.NKeys()
	if pos < 0 || pos > n {
		return fmt.Errorf("page: insert position %d out of range [0,%d]", pos, n)
	}
	if p.Lower()+2 > p.Upper() {
		return fmt.Errorf("page: no room for a new line-table entry")
	}
	if n == 0 || pos == n {
		// Appending: a single write extends the table, then nKeys
		// exposes it. A snapshot between the two is the old state.
		p.setSlot(pos, off)
		p.SetNKeys(n + 1)
		p.SetLower(slotBase(n + 1))
		return nil
	}
	// Step 1: duplicate the last entry one beyond the table.
	p.setSlot(n, p.Slot(n-1))
	// Step 2: expose the extended table.
	p.SetNKeys(n + 1)
	p.SetLower(slotBase(n + 1))
	// Step 3: shift entries right, from the end toward pos, so every
	// intermediate state contains only adjacent duplicates.
	for i := n - 1; i > pos; i-- {
		p.setSlot(i, p.Slot(i-1))
	}
	// Step 4: store the new entry.
	p.setSlot(pos, off)
	return nil
}

// DeleteSlot unlinks line-table entry pos, shifting later entries left and
// then shrinking nKeys. The shift-then-shrink order mirrors the insert
// protocol: a snapshot taken mid-delete contains an adjacent duplicate that
// RepairDuplicates resolves to the post-delete state. The item bytes are
// left dead in the item area until Compact reclaims them.
func (p Page) DeleteSlot(pos int) error {
	n := p.NKeys()
	if pos < 0 || pos >= n {
		return fmt.Errorf("page: delete position %d out of range [0,%d)", pos, n)
	}
	for i := pos; i < n-1; i++ {
		p.setSlot(i, p.Slot(i+1))
	}
	p.SetNKeys(n - 1)
	p.SetLower(slotBase(n - 1))
	return nil
}

// SetSlotUnchecked stores an item offset in line-table entry i without any
// bookkeeping. It exists for the page-reorganization algorithm (§3.4 step
// 3), which lays a backup line table just beyond the live one; the caller
// must extend the lower bound itself via SetLower.
func (p Page) SetSlotUnchecked(i, off int) { p.setSlot(i, off) }

// SlotsEnd returns the byte offset just past line-table entry n-1, for
// callers maintaining the lower bound around a backup line table.
func SlotsEnd(n int) int { return slotBase(n) }

// FindDuplicateSlot returns the first position i such that live entries i
// and i+1 hold the same offset — the signature of an interrupted line-table
// update (§3.3.1) — or -1 if the table is clean.
func (p Page) FindDuplicateSlot() int {
	n := p.NKeys()
	for i := 0; i+1 < n; i++ {
		if p.Slot(i) == p.Slot(i+1) {
			return i
		}
	}
	return -1
}

// RepairDuplicates removes adjacent duplicate line-table entries as
// described in §3.3.2: entries are copied left until the duplicate is the
// last entry, then nKeys is decremented. It returns the number of entries
// removed.
func (p Page) RepairDuplicates() int {
	removed := 0
	for {
		i := p.FindDuplicateSlot()
		if i < 0 {
			return removed
		}
		n := p.NKeys()
		for j := i; j < n-1; j++ {
			p.setSlot(j, p.Slot(j+1))
		}
		p.SetNKeys(n - 1)
		p.SetLower(slotBase(n - 1))
		removed++
	}
}

// Compact rewrites the item area so it contains only the items referenced
// by live line-table entries, reclaiming space left by deletions. It must
// not be called while backup keys are retained (PrevNKeys != 0): those
// items are still needed for recovery (§3.4) and the page is not yet safe
// for update.
func (p Page) Compact() error {
	if p.PrevNKeys() != 0 {
		return fmt.Errorf("page: cannot compact while %d backup keys are retained", p.PrevNKeys())
	}
	n := p.NKeys()
	// Validate every live entry before touching anything, so an error
	// leaves the page exactly as it was.
	for i := 0; i < n; i++ {
		if p.Item(i) == nil {
			return fmt.Errorf("%w: line-table entry %d references invalid offset %d", ErrCorrupt, i, p.Slot(i))
		}
	}
	// Pack the live items into a borrowed scratch buffer at their final
	// offsets, rewriting each slot as soon as its item has been staged
	// (the old offset is dead once the item is in scratch). One sequential
	// copy back replaces the whole item area.
	scratch := GetScratch()
	upper := Size
	for i := 0; i < n; i++ {
		item := p.Item(i)
		sz := itemSize(len(item))
		upper -= sz
		scratch[upper] = byte(len(item))
		scratch[upper+1] = byte(len(item) >> 8)
		copy(scratch[upper+2:], item)
		p.setSlot(i, upper)
	}
	copy(p[upper:], scratch[upper:])
	p.SetUpper(upper)
	PutScratch(scratch)
	return nil
}

// CheckLineTable validates that every live (and, when prevNKeys is set,
// backup) entry references a well-formed item. It reports recoverable
// duplicate entries separately from structural corruption.
func (p Page) CheckLineTable() error {
	if err := p.CheckHeader(); err != nil {
		return err
	}
	if p.IsZeroed() {
		return nil
	}
	total := p.NKeys()
	if bn := p.PrevNKeys(); bn > total {
		total = bn
	}
	if slotBase(total) > p.Lower() {
		return fmt.Errorf("%w: %d entries exceed lower bound %d", ErrCorrupt, total, p.Lower())
	}
	for i := 0; i < total; i++ {
		if p.itemAt(p.Slot(i)) == nil {
			return fmt.Errorf("%w: entry %d references invalid offset %d", ErrCorrupt, i, p.Slot(i))
		}
	}
	return nil
}
