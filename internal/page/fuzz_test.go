package page

import "testing"

// FuzzPageImage feeds an arbitrary page image (the input, zero-padded or cut
// to Size) through the decoders in the order the B-link tree's descent-time
// check, checkPage in internal/btree, calls them: magic and sync token, type
// and level, the first and last live item (the §3.3.1 range check), the
// line-clean flag and the duplicate-slot scan (§3.3.2), the backup count
// (§3.4). Then come what a descent and the structural check read after it:
// a binary search's items, the peers and the header and line-table checks. None may
// panic or loop, since a checksum only proves that some writer produced the
// image; and a line table that passes CheckLineTable must resolve every live
// entry to an item.
//
//	go test ./internal/page -run '^$' -fuzz '^FuzzPageImage$' -fuzztime 10s
func FuzzPageImage(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzPageImage) holds short,
	// header-only images; pages with items are built here.
	leaf := New()
	leaf.Init(TypeLeaf, 0)
	for i, item := range []string{"alpha", "beta", "gamma"} {
		off, err := leaf.AddItem([]byte(item))
		if err != nil {
			f.Fatal(err)
		}
		if err := leaf.InsertSlot(i, off); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(leaf))
	dup := leaf.Clone()
	dup.SetSlotUnchecked(1, dup.Slot(0)) // an insert interrupted mid-shift
	f.Add([]byte(dup))
	backups := leaf.Clone()
	backups.SetPrevNKeys(2)
	backups.SetLower(SlotsEnd(3))
	f.Add([]byte(backups))

	f.Fuzz(func(t *testing.T, in []byte) {
		p := New()
		copy(p, in)
		// checkPage's order.
		_, _, _ = p.IsZeroed(), p.Valid(), p.SyncToken()
		_, _ = p.Type(), p.Level()
		if n := p.NKeys(); n > 0 {
			_, _ = p.Item(0), p.Item(n-1)
		}
		_ = p.HasFlag(FlagLineClean)
		_ = p.FindDuplicateSlot()
		_ = p.PrevNKeys()
		// A descent's binary search and the structural check.
		for n := p.NKeys(); n > 0; n /= 2 {
			_ = p.Item(n / 2)
		}
		_, _, _, _ = p.LeftPeer(), p.RightPeer(), p.LeftPeerToken(), p.RightPeerToken()
		_, _ = p.NewPage(), p.FreeSpace()
		_ = p.CheckHeader()
		if err := p.CheckLineTable(); err == nil && !p.IsZeroed() {
			for i := 0; i < p.NKeys(); i++ {
				if p.Item(i) == nil {
					t.Fatalf("CheckLineTable passed, but live entry %d of %d (offset %d) is no item",
						i, p.NKeys(), p.Slot(i))
				}
			}
		}
	})
}
