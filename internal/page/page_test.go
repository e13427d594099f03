package page

import (
	"bytes"
	"testing"
)

func TestInitAndHeaderRoundTrip(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	if !p.Valid() || p.IsZeroed() {
		t.Fatal("initialized page should be valid and not zeroed")
	}
	if p.Type() != TypeLeaf || p.Level() != 0 {
		t.Fatalf("type/level = %v/%d", p.Type(), p.Level())
	}
	if p.NKeys() != 0 || p.PrevNKeys() != 0 {
		t.Fatalf("fresh page has keys: %d/%d", p.NKeys(), p.PrevNKeys())
	}
	if p.Lower() != HeaderSize || p.Upper() != Size {
		t.Fatalf("free space bounds %d..%d", p.Lower(), p.Upper())
	}

	p.SetSyncToken(42)
	p.SetPrevNKeys(7)
	p.SetNewPage(99)
	p.SetLeftPeer(3)
	p.SetRightPeer(4)
	p.SetLeftPeerToken(1001)
	p.SetRightPeerToken(1002)
	p.SetSpecial(0xDEAD)
	if p.SyncToken() != 42 || p.PrevNKeys() != 7 || p.NewPage() != 99 {
		t.Fatal("recovery header fields did not round-trip")
	}
	if p.LeftPeer() != 3 || p.RightPeer() != 4 ||
		p.LeftPeerToken() != 1001 || p.RightPeerToken() != 1002 {
		t.Fatal("peer fields did not round-trip")
	}
	if p.Special() != 0xDEAD {
		t.Fatal("special did not round-trip")
	}
	if err := p.CheckHeader(); err != nil {
		t.Fatalf("CheckHeader: %v", err)
	}
}

func TestZeroedPageDetection(t *testing.T) {
	p := New()
	if !p.IsZeroed() {
		t.Fatal("fresh buffer should read as zeroed")
	}
	if err := p.CheckHeader(); err != nil {
		t.Fatalf("zeroed page must pass CheckHeader (recovery handles it): %v", err)
	}
	if err := p.CheckLineTable(); err != nil {
		t.Fatalf("zeroed page must pass CheckLineTable: %v", err)
	}
}

func TestFlags(t *testing.T) {
	p := New()
	p.Init(TypeInternal, 1)
	p.AddFlag(FlagShadow)
	if !p.HasFlag(FlagShadow) {
		t.Fatal("flag not set")
	}
	p.AddFlag(FlagPeerSuspect)
	if !p.HasFlag(FlagShadow | FlagPeerSuspect) {
		t.Fatal("flags should accumulate")
	}
	p.ClearFlag(FlagShadow)
	if p.HasFlag(FlagShadow) || !p.HasFlag(FlagPeerSuspect) {
		t.Fatal("ClearFlag cleared the wrong bit")
	}
}

func TestCheckHeaderCorruption(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	p[0] = 0x12 // clobber the magic
	if err := p.CheckHeader(); err == nil {
		t.Fatal("bad magic must be reported")
	}

	p.Init(TypeLeaf, 0)
	p.SetLower(Size + 1)
	if err := p.CheckHeader(); err == nil {
		t.Fatal("out-of-range lower must be reported")
	}

	p.Init(TypeLeaf, 0)
	p.SetUpper(HeaderSize - 2)
	if err := p.CheckHeader(); err == nil {
		t.Fatal("upper below lower must be reported")
	}

	p.Init(TypeLeaf, 0)
	p.SetNKeys(100) // but lower still == HeaderSize
	if err := p.CheckHeader(); err == nil {
		t.Fatal("line table outside lower bound must be reported")
	}
}

func addKeyed(t *testing.T, p Page, pos int, payload string) int {
	t.Helper()
	off, err := p.AddItem([]byte(payload))
	if err != nil {
		t.Fatalf("AddItem(%q): %v", payload, err)
	}
	if err := p.InsertSlot(pos, off); err != nil {
		t.Fatalf("InsertSlot(%d): %v", pos, err)
	}
	return off
}

func TestItemInsertAndRetrieve(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	addKeyed(t, p, 0, "bbb")
	addKeyed(t, p, 1, "ddd")
	addKeyed(t, p, 0, "aaa") // insert at front: shifts others right
	addKeyed(t, p, 2, "ccc") // insert in the middle

	want := []string{"aaa", "bbb", "ccc", "ddd"}
	if p.NKeys() != len(want) {
		t.Fatalf("NKeys = %d, want %d", p.NKeys(), len(want))
	}
	for i, w := range want {
		if got := string(p.Item(i)); got != w {
			t.Errorf("item %d = %q, want %q", i, got, w)
		}
	}
	if err := p.CheckLineTable(); err != nil {
		t.Fatalf("CheckLineTable: %v", err)
	}
}

func TestDeleteSlot(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	for i, s := range []string{"a", "b", "c", "d"} {
		addKeyed(t, p, i, s)
	}
	if err := p.DeleteSlot(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "d"}
	if p.NKeys() != len(want) {
		t.Fatalf("NKeys = %d", p.NKeys())
	}
	for i, w := range want {
		if got := string(p.Item(i)); got != w {
			t.Errorf("item %d = %q, want %q", i, got, w)
		}
	}
	if err := p.DeleteSlot(5); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
}

func TestFreeSpaceAccounting(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	before := p.FreeSpace()
	payload := bytes.Repeat([]byte{'x'}, 100)
	addKeyedBytes(t, p, 0, payload)
	after := p.FreeSpace()
	// 2 bytes line table + 2 bytes length prefix + payload
	if want := before - (2 + 2 + 100); after != want {
		t.Fatalf("free space %d, want %d", after, want)
	}
	if !p.CanFit(100) {
		t.Fatal("page should still fit another 100-byte item")
	}
}

func addKeyedBytes(t *testing.T, p Page, pos int, payload []byte) {
	t.Helper()
	off, err := p.AddItem(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertSlot(pos, off); err != nil {
		t.Fatal(err)
	}
}

func TestPageFullRejectsItem(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	payload := bytes.Repeat([]byte{'x'}, 1000)
	n := 0
	for p.CanFit(len(payload)) {
		addKeyedBytes(t, p, n, payload)
		n++
	}
	if _, err := p.AddItem(bytes.Repeat([]byte{'y'}, Size)); err == nil {
		t.Fatal("oversized item must be rejected")
	}
	if err := p.CheckLineTable(); err != nil {
		t.Fatalf("full page must stay well-formed: %v", err)
	}
}

func TestCompactReclaimsDeletedItems(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	for i := 0; i < 10; i++ {
		addKeyedBytes(t, p, i, bytes.Repeat([]byte{byte('a' + i)}, 200))
	}
	for i := 0; i < 5; i++ {
		if err := p.DeleteSlot(0); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FreeSpace()
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	after := p.FreeSpace()
	if after <= before {
		t.Fatalf("compact did not reclaim space: %d -> %d", before, after)
	}
	// Surviving items intact and in order.
	for i := 0; i < 5; i++ {
		want := bytes.Repeat([]byte{byte('a' + 5 + i)}, 200)
		if !bytes.Equal(p.Item(i), want) {
			t.Errorf("item %d corrupted by compact", i)
		}
	}
	if err := p.CheckLineTable(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRefusesWithBackupKeys(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	addKeyed(t, p, 0, "k")
	p.SetPrevNKeys(2)
	if err := p.Compact(); err == nil {
		t.Fatal("compact must refuse while backup keys are retained (§3.4)")
	}
}

// TestIntraPageCrashStates walks the insert protocol of §3.3 step (4) one
// header/table mutation at a time and verifies that every intermediate
// snapshot either equals the before-image or contains only the adjacent
// duplicate that RepairDuplicates fixes — the paper's intra-page recovery
// guarantee.
func TestIntraPageCrashStates(t *testing.T) {
	build := func() Page {
		p := New()
		p.Init(TypeLeaf, 0)
		for i, s := range []string{"a", "c", "e", "g"} {
			addKeyed(t, p, i, s)
		}
		return p
	}

	// Simulate the protocol by hand so we can snapshot between steps.
	p := build()
	snapshots := []Page{p.Clone()}
	off, err := p.AddItem([]byte("d")) // item bytes first; invisible until slotted
	if err != nil {
		t.Fatal(err)
	}
	snapshots = append(snapshots, p.Clone())
	n := p.NKeys() // 4; new key belongs at position 2
	p.setSlot(n, p.Slot(n-1))
	snapshots = append(snapshots, p.Clone())
	p.SetNKeys(n + 1)
	p.SetLower(slotBase(n + 1))
	snapshots = append(snapshots, p.Clone())
	for i := n - 1; i > 2; i-- {
		p.setSlot(i, p.Slot(i-1))
		snapshots = append(snapshots, p.Clone())
	}
	p.setSlot(2, off)
	snapshots = append(snapshots, p.Clone())

	for si, s := range snapshots[:len(snapshots)-1] {
		s.RepairDuplicates()
		if err := s.CheckLineTable(); err != nil {
			t.Fatalf("snapshot %d unrepairable: %v", si, err)
		}
		// After repair the page must contain a prefix-consistent view:
		// either the old four keys, in order, with no duplicates.
		var got []string
		for i := 0; i < s.NKeys(); i++ {
			got = append(got, string(s.Item(i)))
		}
		want := []string{"a", "c", "e", "g"}
		if len(got) != len(want) {
			t.Fatalf("snapshot %d: repaired to %v", si, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("snapshot %d: repaired to %v", si, got)
			}
		}
	}

	// The final snapshot is the completed insert.
	final := snapshots[len(snapshots)-1]
	if final.FindDuplicateSlot() != -1 {
		t.Fatal("completed insert must not contain duplicates")
	}
	want := []string{"a", "c", "d", "e", "g"}
	for i, w := range want {
		if got := string(final.Item(i)); got != w {
			t.Fatalf("final item %d = %q, want %q", i, got, w)
		}
	}
}

func TestRepairDuplicatesRemovesAllPairs(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	for i, s := range []string{"a", "b", "c"} {
		addKeyed(t, p, i, s)
	}
	// Manufacture duplicates: duplicate entry 1 into position 2's old
	// spot by hand, as an interrupted shift would.
	n := p.NKeys()
	p.setSlot(n, p.Slot(n-1))
	p.SetNKeys(n + 1)
	p.SetLower(slotBase(n + 1))
	// Now table is a,b,c,c.
	if got := p.FindDuplicateSlot(); got != 2 {
		t.Fatalf("FindDuplicateSlot = %d, want 2", got)
	}
	if removed := p.RepairDuplicates(); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if p.NKeys() != 3 || p.FindDuplicateSlot() != -1 {
		t.Fatal("repair incomplete")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := New()
	p.Init(TypeLeaf, 0)
	addKeyed(t, p, 0, "x")
	q := p.Clone()
	addKeyed(t, p, 1, "y")
	if q.NKeys() != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeInvalid: "invalid", TypeMeta: "meta", TypeInternal: "internal",
		TypeLeaf: "leaf", TypeFree: "free", TypeHeap: "heap", Type(77): "type(77)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
