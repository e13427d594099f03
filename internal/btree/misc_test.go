package btree

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func TestDumpRendersStructure(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	for i := 0; i < 1000; i++ {
		mustInsert(t, tr, i)
	}
	out := tr.Dump()
	if !strings.Contains(out, "meta: variant=shadow") {
		t.Fatalf("dump missing meta line:\n%s", out)
	}
	if !strings.Contains(out, "internal") || !strings.Contains(out, "leaf") {
		t.Fatalf("dump missing node lines:\n%s", out)
	}
	if !strings.Contains(out, "entry 0:") {
		t.Fatalf("dump missing entries:\n%s", out)
	}
}

func TestDumpEmptyTree(t *testing.T) {
	tr, _ := newTree(t, Reorg)
	out := tr.Dump()
	if !strings.Contains(out, "root=0") {
		t.Fatalf("empty dump: %s", out)
	}
}

func TestReachablePagesCoversTree(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	for i := 0; i < 3000; i++ {
		mustInsert(t, tr, i)
	}
	reach, err := tr.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	if !reach[0] {
		t.Fatal("meta page must be reachable")
	}
	h, _ := tr.Height()
	if h < 2 {
		t.Fatal("want multi-level tree")
	}
	// Reachable count must be at least leaves+internals+meta and at most
	// the file size.
	if len(reach) < 3 || uint32(len(reach)) > tr.NumPages() {
		t.Fatalf("reachable=%d pages=%d", len(reach), tr.NumPages())
	}
}

func TestDisableRangeCheckStillWorksWithoutCrashes(t *testing.T) {
	tr, err := Open(storage.NewMemDisk(), Shadow, Options{noRangeCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(u32key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 13 {
		v, err := tr.Lookup(u32key(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: %q, %v", i, v, err)
		}
	}
	// Range checks off: a leaf image in the wrong place is served as if
	// sound, so a key of the range it displaced reads as missing.
	rec := obs.New(0)
	tr, key := misplaceLeaf(t, Options{noRangeCheck: true, Obs: rec})
	if _, err := tr.Lookup(key); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("lookup over a misplaced leaf with range checks off: %v, want ErrKeyNotFound", err)
	}
	if n := rec.RepairTotal(); n != 0 {
		t.Fatalf("range checks off, yet %d repairs counted", n)
	}
}

// misplaceLeaf builds a synced two-level shadow tree, overwrites the
// durable image of the root's second leaf with its first leaf's, and
// reopens the image with opts. The copy is a sound page in the wrong place:
// only the §3.3.1 range check can tell. It returns the reopened tree and
// the smallest key of the displaced leaf.
func misplaceLeaf(t *testing.T, opts Options) (*Tree, []byte) {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	read := func(no uint32) page.Page {
		buf := page.New()
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	root := read(metaPage{read(0)}.root())
	if root.Type() != page.TypeInternal || root.NKeys() < 2 {
		t.Fatalf("root is type %d with %d entries; want an internal page over two leaves", root.Type(), root.NKeys())
	}
	first, err := internalEntry(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := internalEntry(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	key, _, ok, err := minMaxKeys(read(second.child))
	if err != nil || !ok {
		t.Fatalf("second leaf has no keys: %v", err)
	}
	if err := d.WritePage(second.child, read(first.child)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(d, Shadow, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr2, bytes.Clone(key)
}

func TestDisablePeerCheckScan(t *testing.T) {
	tr, err := Open(storage.NewMemDisk(), Shadow, Options{noPeerCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(u32key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("scan saw %d keys", n)
	}
}

func TestMaxSizeKeysAndValues(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			// Enough maximal items to force several splits.
			for i := 0; i < 40; i++ {
				key := bytes.Repeat([]byte{byte(i)}, MaxKeySize)
				value := bytes.Repeat([]byte{0xEE}, MaxValueSize)
				if err := tr.Insert(key, value); err != nil {
					t.Fatalf("maximal insert %d: %v", i, err)
				}
			}
			for i := 0; i < 40; i++ {
				key := bytes.Repeat([]byte{byte(i)}, MaxKeySize)
				v, err := tr.Lookup(key)
				if err != nil || len(v) != MaxValueSize {
					t.Fatalf("maximal lookup %d: %d bytes, %v", i, len(v), err)
				}
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptyValue(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	if err := tr.Insert([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Lookup([]byte("k"))
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value round trip: %q, %v", v, err)
	}
}

func TestScanEmptyRange(t *testing.T) {
	tr, _ := newTree(t, Reorg)
	for i := 0; i < 100; i++ {
		mustInsert(t, tr, i)
	}
	n := 0
	if err := tr.Scan(u32key(50), u32key(50), func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty range returned %d keys", n)
	}
	// Range entirely above all keys.
	if err := tr.Scan(u32key(5000), nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("out-of-range scan returned %d keys", n)
	}
}

func TestScanOnEmptyTree(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	n := 0
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("empty tree scan returned keys")
	}
	if _, err := tr.Lookup(u32key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal(err)
	}
	if err := tr.Delete(u32key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal(err)
	}
}

func TestCloseThenUseAfterReopenKeepsCounters(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, Reorg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		mustInsert(t, tr, i)
	}
	gBefore := tr.Counter().Current()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(d, Reorg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Counter().Current() < gBefore {
		t.Fatalf("counter went backwards: %d -> %d", gBefore, tr2.Counter().Current())
	}
	if tr2.Counter().LastCrash() > tr2.Counter().Current() {
		t.Fatal("last crash token above current counter")
	}
	mustLookup(t, tr2, 250)
}

func TestCrashThenCleanCloseThenCrash(t *testing.T) {
	// Alternate crash and clean shutdown; tokens must stay ordered and
	// keys recoverable throughout.
	d := storage.NewMemDisk()
	committed := 0
	for round := 0; round < 6; round++ {
		tr, err := Open(d, Shadow, Options{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < committed; i++ {
			if _, err := tr.Lookup(u32key(i)); err != nil {
				t.Fatalf("round %d: key %d lost: %v", round, i, err)
			}
		}
		base := committed
		for i := base; i < base+300; i++ {
			if err := tr.Insert(u32key(i), val(i)); err != nil {
				// Keys may survive a crash uncommitted.
				if errors.Is(err, ErrDuplicateKey) {
					continue
				}
				t.Fatal(err)
			}
		}
		if round%2 == 0 {
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			committed = base + 300
		} else {
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			committed = base + 300
			// More uncommitted work, then crash.
			for i := committed; i < committed+100; i++ {
				if err := tr.Insert(u32key(i), val(i)); err != nil && !errors.Is(err, ErrDuplicateKey) {
					t.Fatal(err)
				}
			}
			if err := tr.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashPartial(func(p []storage.PageNo) []storage.PageNo {
				return p[:len(p)/3]
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUpdateManyTimes(t *testing.T) {
	tr, _ := newTree(t, Hybrid)
	mustInsert(t, tr, 1)
	for round := 0; round < 200; round++ {
		if err := tr.Update(u32key(1), []byte(fmt.Sprintf("v%d", round))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tr.Lookup(u32key(1))
	if err != nil || string(v) != "v199" {
		t.Fatalf("final value %q, %v", v, err)
	}
}

func TestCheckDetectsManualCorruption(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
	// Find a leaf and clobber its type byte through the pool.
	reach, err := tr.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	for no := range reach {
		if no == 0 {
			continue
		}
		f, err := tr.Pool().Get(no)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data.Type() == page.TypeLeaf {
			f.Data.SetType(page.TypeHeap) // nonsense for a tree
			f.Unpin()
			break
		}
		f.Unpin()
	}
	if err := tr.Check(CheckStructure); err == nil {
		t.Fatal("Check must notice a clobbered page type")
	}
}

func TestHybridFlagPlacement(t *testing.T) {
	// Hybrid: only level-1 internal pages carry the shadow flag (their
	// children — the leaves — split with the shadow technique).
	tr, _ := newTree(t, Hybrid)
	for i := 0; i < 60000; i++ {
		mustInsert(t, tr, i)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Skipf("need height >= 3, got %d", h)
	}
	reach, err := tr.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	for no := range reach {
		if no == 0 {
			continue
		}
		f, err := tr.Pool().Get(no)
		if err != nil {
			t.Fatal(err)
		}
		level := f.Data.Level()
		hasShadow := f.Data.HasFlag(page.FlagShadow)
		f.Unpin()
		if level == 1 && !hasShadow {
			t.Fatalf("level-1 page %d must be shadow in hybrid", no)
		}
		if level != 1 && hasShadow {
			t.Fatalf("level-%d page %d must not be shadow in hybrid", level, no)
		}
	}
}

// TestParseVariant: ParseVariant inverts String for every variant and
// refuses every other name.
func TestParseVariant(t *testing.T) {
	for _, v := range allVariants {
		if got, err := ParseVariant(v.String()); err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	for _, name := range []string{"", "Shadow", "variant(4)", "bogus"} {
		if _, err := ParseVariant(name); err == nil {
			t.Errorf("ParseVariant(%q) succeeded", name)
		}
	}
}
