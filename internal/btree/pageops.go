package btree

import (
	"bytes"
	"fmt"

	"repro/internal/page"
)

// In-page operations shared by every variant: binary search over the line
// table, leaf and internal inserts using the crash-careful line-table
// protocol, and helpers for reading live and backup items.

// leafSearch returns the position of key among the live entries (found) or
// the position where it would be inserted.
func leafSearch(p page.Page, key []byte) (pos int, found bool, err error) {
	n := p.NKeys()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k, kerr := itemKey(p.Item(mid))
		if kerr != nil {
			return 0, false, kerr
		}
		switch bytes.Compare(k, key) {
		case 0:
			return mid, true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// internalSearch returns the index of the entry whose range contains key:
// the largest i with sep_i <= key. The leftmost entry's separator is the
// lower boundary of the page's range (empty on the leftmost spine), so a
// well-formed descent always finds an entry.
func internalSearch(p page.Page, key []byte) (int, error) {
	n := p.NKeys()
	if n == 0 {
		return -1, nil
	}
	lo, hi := 0, n // invariant: sep[lo-1] <= key < sep[hi]
	for lo < hi {
		mid := (lo + hi) / 2
		sep, err := itemKey(p.Item(mid))
		if err != nil {
			return 0, err
		}
		if bytes.Compare(sep, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// key sorts below every separator; descend leftmost (only
		// possible transiently or at the leftmost spine).
		return 0, nil
	}
	return lo - 1, nil
}

// internalEntry decodes entry i of an internal page.
func internalEntry(p page.Page, i int) (internalItem, error) {
	return decodeInternalItem(p.Item(i), p.HasFlag(page.FlagShadow))
}

// childRange computes the expected key range of entry i's child given the
// page's own inherited range [lo,hi): the child's range runs from its
// separator (or the inherited lo for entry 0) to the next separator (or the
// inherited hi for the last entry). This is the range used for the
// inter-page consistency check of §3.3.1.
func childRange(p page.Page, i int, lo, hi []byte) (cLo, cHi []byte, err error) {
	sep, err := itemKey(p.Item(i))
	if err != nil {
		return nil, nil, err
	}
	if i == 0 || len(sep) == 0 {
		cLo = lo
	} else {
		cLo = sep
	}
	if i+1 < p.NKeys() {
		next, err := itemKey(p.Item(i + 1))
		if err != nil {
			return nil, nil, err
		}
		cHi = next
	} else {
		cHi = hi
	}
	return cLo, cHi, nil
}

// minMaxKeys returns the smallest and largest live keys on the page; ok is
// false for an empty page.
func minMaxKeys(p page.Page) (minKey, maxKey []byte, ok bool, err error) {
	n := p.NKeys()
	if n == 0 {
		return nil, nil, false, nil
	}
	minKey, err = itemKey(p.Item(0))
	if err != nil {
		return nil, nil, false, err
	}
	maxKey, err = itemKey(p.Item(n - 1))
	if err != nil {
		return nil, nil, false, err
	}
	return minKey, maxKey, true, nil
}

// insertLeaf adds <key,value> to a leaf with the careful two-step protocol.
// The caller has verified there is room.
func insertLeaf(p page.Page, key, value []byte) error {
	pos, found, err := leafSearch(p, key)
	if err != nil {
		return err
	}
	if found {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	return insertLeafAt(p, pos, key, value)
}

// insertLeafAt is insertLeaf for a caller that has already searched the
// leaf: pos is where leafSearch placed the (absent) key.
func insertLeafAt(p page.Page, pos int, key, value []byte) error {
	// Encode straight into the page's item area: the item is fully
	// written before InsertSlot links it, so the careful ordering holds
	// without an intermediate buffer.
	off, payload, err := p.ReserveItem(leafItemLen(key, value))
	if err != nil {
		return err
	}
	putU16(payload, len(key))
	copy(payload[2:], key)
	copy(payload[2+len(key):], value)
	p.ClearFlag(page.FlagLineClean)
	if err := p.InsertSlot(pos, off); err != nil {
		return err
	}
	p.AddFlag(page.FlagLineClean)
	return nil
}

// insertInternal adds an internal entry in separator order.
func insertInternal(p page.Page, it internalItem) error {
	pos, err := internalInsertPos(p, it.sep)
	if err != nil {
		return err
	}
	off, err := p.AddItem(encodeInternalItem(it, p.HasFlag(page.FlagShadow)))
	if err != nil {
		return err
	}
	p.ClearFlag(page.FlagLineClean)
	if err := p.InsertSlot(pos, off); err != nil {
		return err
	}
	p.AddFlag(page.FlagLineClean)
	return nil
}

// internalInsertPos returns where a new separator belongs.
func internalInsertPos(p page.Page, sep []byte) (int, error) {
	n := p.NKeys()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := itemKey(p.Item(mid))
		if err != nil {
			return 0, err
		}
		if bytes.Compare(k, sep) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// patchInternalChild overwrites the child pointer of entry i in place.
// The separator does not move, so this is a 4-byte in-place store — exactly
// step (5) of the shadow split's parent update.
func patchInternalChild(p page.Page, i int, child uint32) error {
	item := p.Item(i)
	if item == nil {
		return fmt.Errorf("%w: entry %d missing", page.ErrCorrupt, i)
	}
	k := getU16(item)
	if len(item) < 2+k+4 {
		return fmt.Errorf("%w: entry %d too short to patch", page.ErrCorrupt, i)
	}
	putU32(item[2+k:], child)
	return nil
}

// patchInternalPrev overwrites the prevPtr of entry i (shadow pages only).
func patchInternalPrev(p page.Page, i int, prev uint32) error {
	if !p.HasFlag(page.FlagShadow) {
		return fmt.Errorf("btree: patchInternalPrev on non-shadow page")
	}
	item := p.Item(i)
	if item == nil {
		return fmt.Errorf("%w: entry %d missing", page.ErrCorrupt, i)
	}
	k := getU16(item)
	if len(item) < 2+k+8 {
		return fmt.Errorf("%w: entry %d too short to patch", page.ErrCorrupt, i)
	}
	putU32(item[2+k+4:], prev)
	return nil
}

// liveItems returns copies of all live items in line-table order.
func liveItems(p page.Page) ([][]byte, error) {
	n := p.NKeys()
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		item := p.Item(i)
		if item == nil {
			return nil, fmt.Errorf("%w: live item %d unreadable", page.ErrCorrupt, i)
		}
		out[i] = append([]byte(nil), item...)
	}
	return out, nil
}

// backupItems returns copies of the backup items a reorganization split
// parked beyond the live line table (§3.4 step 3); empty when PrevNKeys
// is zero.
func backupItems(p page.Page) ([][]byte, error) {
	nLive := p.NKeys()
	nTotal := p.PrevNKeys()
	if nTotal <= nLive {
		return nil, nil
	}
	out := make([][]byte, 0, nTotal-nLive)
	for i := nLive; i < nTotal; i++ {
		item := p.Item(i)
		if item == nil {
			return nil, fmt.Errorf("%w: backup item %d unreadable", page.ErrCorrupt, i)
		}
		out = append(out, append([]byte(nil), item...))
	}
	return out, nil
}

// buildPage fills a freshly initialized page with pre-sorted items.
func buildPage(p page.Page, items [][]byte) error {
	for i, item := range items {
		off, err := p.AddItem(item)
		if err != nil {
			return err
		}
		if err := p.InsertSlot(i, off); err != nil {
			return err
		}
	}
	return nil
}

// attachBackups copies backup items into the page free space with a line
// table just beyond the live one, and sets prevNKeys to the pre-split key
// count (§3.4 steps 2–3).
func attachBackups(p page.Page, backups [][]byte) error {
	nLive := p.NKeys()
	for j, item := range backups {
		off, err := p.AddItem(item)
		if err != nil {
			return fmt.Errorf("btree: backup keys did not fit (impossible for a true split): %w", err)
		}
		p.SetSlotUnchecked(nLive+j, off)
	}
	p.SetLower(page.SlotsEnd(nLive + len(backups)))
	p.SetPrevNKeys(nLive + len(backups))
	return nil
}

// reclaimBackups drops retained backup keys once they are no longer needed
// for recovery: the space becomes dead until the next Compact.
func reclaimBackups(p page.Page) {
	p.SetPrevNKeys(0)
	p.SetNewPage(0)
	p.SetLower(page.SlotsEnd(p.NKeys()))
}

// itemsInRange filters decoded items to those whose keys fall in [lo,hi),
// deduplicating by key (a source page's live and backup sets can both be
// consulted during repair).
func itemsInRange(items [][]byte, lo, hi []byte) ([][]byte, error) {
	out := make([][]byte, 0, len(items))
	var lastKey []byte
	for _, item := range items {
		k, err := itemKey(item)
		if err != nil {
			return nil, err
		}
		if !keyInRange(k, lo, hi) {
			continue
		}
		if lastKey != nil && bytes.Equal(k, lastKey) {
			continue
		}
		lastKey = k
		out = append(out, item)
	}
	return out, nil
}

// mergeItemRuns merges two individually sorted item runs into one sorted
// run, deduplicating by key. Used when reorg recovery folds backup keys
// back into a page (cases (a)/(b) of §3.4: "assigning prevNKeys to nKeys
// reallocates the duplicate keys").
func mergeItemRuns(a, b [][]byte) ([][]byte, error) {
	out := make([][]byte, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, err := itemKey(a[i])
		if err != nil {
			return nil, err
		}
		kb, err := itemKey(b[j])
		if err != nil {
			return nil, err
		}
		switch bytes.Compare(ka, kb) {
		case -1:
			out = append(out, a[i])
			i++
		case 1:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}
