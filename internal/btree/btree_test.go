package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

var allVariants = []Variant{Normal, Shadow, Reorg, Hybrid}

func newTree(t *testing.T, v Variant) (*Tree, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatalf("Open(%v): %v", v, err)
	}
	return tr, d
}

// newTreeObs is newTree with a recorder attached, for tests that count.
func newTreeObs(t *testing.T, v Variant) (*Tree, *obs.Recorder) {
	t.Helper()
	rec := obs.New(0)
	tr, err := Open(storage.NewMemDisk(), v, Options{Obs: rec})
	if err != nil {
		t.Fatalf("Open(%v): %v", v, err)
	}
	return tr, rec
}

func u32key(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

func val(i int) []byte { return []byte(fmt.Sprintf("v%08d", i)) }

func mustInsert(t *testing.T, tr *Tree, i int) {
	t.Helper()
	if err := tr.Insert(u32key(i), val(i)); err != nil {
		t.Fatalf("Insert(%d): %v", i, err)
	}
}

func mustLookup(t *testing.T, tr *Tree, i int) {
	t.Helper()
	v, err := tr.Lookup(u32key(i))
	if err != nil {
		t.Fatalf("Lookup(%d): %v", i, err)
	}
	if !bytes.Equal(v, val(i)) {
		t.Fatalf("Lookup(%d) = %q, want %q", i, v, val(i))
	}
}

func TestInsertLookupSmall(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			for i := 0; i < 100; i++ {
				mustInsert(t, tr, i)
			}
			for i := 0; i < 100; i++ {
				mustLookup(t, tr, i)
			}
			if _, err := tr.Lookup(u32key(100)); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestAscendingInsertSplits(t *testing.T) {
	// Ascending 4-byte keys: the paper's worst-case split order (§6).
	const n = 5000
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			for i := 0; i < n; i++ {
				mustInsert(t, tr, i)
			}
			if tr.SplitCount() == 0 {
				t.Fatal("expected splits")
			}
			h, err := tr.Height()
			if err != nil {
				t.Fatal(err)
			}
			if h < 2 {
				t.Fatalf("height %d, expected a multi-level tree", h)
			}
			for i := 0; i < n; i += 37 {
				mustLookup(t, tr, i)
			}
			cnt, err := tr.Count()
			if err != nil {
				t.Fatal(err)
			}
			if cnt != n {
				t.Fatalf("Count = %d, want %d", cnt, n)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestRandomInsertOrder(t *testing.T) {
	const n = 3000
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			rng := rand.New(rand.NewSource(42))
			perm := rng.Perm(n)
			for _, i := range perm {
				mustInsert(t, tr, i)
			}
			for i := 0; i < n; i++ {
				mustLookup(t, tr, i)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestDescendingInsertOrder(t *testing.T) {
	const n = 2000
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			for i := n - 1; i >= 0; i-- {
				mustInsert(t, tr, i)
			}
			for i := 0; i < n; i++ {
				mustLookup(t, tr, i)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			mustInsert(t, tr, 1)
			if err := tr.Insert(u32key(1), val(2)); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("duplicate insert: %v", err)
			}
		})
	}
}

func TestKeyValidation(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	if err := tr.Insert(nil, val(0)); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := tr.Insert(make([]byte, MaxKeySize+1), val(0)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
	if err := tr.Insert(u32key(1), make([]byte, MaxValueSize+1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if _, err := tr.Lookup(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key lookup: %v", err)
	}
}

func TestDelete(t *testing.T) {
	const n = 2000
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			for i := 0; i < n; i++ {
				mustInsert(t, tr, i)
			}
			for i := 0; i < n; i += 2 {
				if err := tr.Delete(u32key(i)); err != nil {
					t.Fatalf("Delete(%d): %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				_, err := tr.Lookup(u32key(i))
				if i%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("deleted key %d: %v", i, err)
				}
				if i%2 == 1 && err != nil {
					t.Fatalf("surviving key %d: %v", i, err)
				}
			}
			if err := tr.Delete(u32key(0)); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("double delete: %v", err)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := newTree(t, Reorg)
	mustInsert(t, tr, 7)
	if err := tr.Update(u32key(7), []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Lookup(u32key(7))
	if err != nil || string(v) != "new" {
		t.Fatalf("Lookup after update = %q, %v", v, err)
	}
}

func TestScanOrderAndRange(t *testing.T) {
	const n = 3000
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			rng := rand.New(rand.NewSource(7))
			for _, i := range rng.Perm(n) {
				mustInsert(t, tr, i)
			}
			// Full scan: every key, ascending.
			var got []int
			err := tr.Scan(nil, nil, func(k, v []byte) bool {
				got = append(got, int(binary.BigEndian.Uint32(k)))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("scan returned %d keys, want %d", len(got), n)
			}
			for i, g := range got {
				if g != i {
					t.Fatalf("scan[%d] = %d", i, g)
				}
			}
			// Bounded scan.
			got = got[:0]
			err = tr.Scan(u32key(100), u32key(200), func(k, v []byte) bool {
				got = append(got, int(binary.BigEndian.Uint32(k)))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 100 || got[0] != 100 || got[99] != 199 {
				t.Fatalf("bounded scan: %d keys, first %d, last %d",
					len(got), got[0], got[len(got)-1])
			}
			// Early stop.
			count := 0
			err = tr.Scan(nil, nil, func(k, v []byte) bool {
				count++
				return count < 10
			})
			if err != nil || count != 10 {
				t.Fatalf("early stop: count=%d err=%v", count, err)
			}
		})
	}
}

func TestContains(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	mustInsert(t, tr, 3)
	if ok, err := tr.Contains(u32key(3)); err != nil || !ok {
		t.Fatalf("Contains(3) = %v, %v", ok, err)
	}
	if ok, err := tr.Contains(u32key(4)); err != nil || ok {
		t.Fatalf("Contains(4) = %v, %v", ok, err)
	}
}

func TestCloseAndReopenClean(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				mustInsert(t, tr, i)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			tr2, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				mustLookup(t, tr2, i)
			}
			if err := tr2.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenVariantMismatch(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d, Reorg, Options{}); !errors.Is(err, ErrVariantMismatch) {
		t.Fatalf("variant mismatch: %v", err)
	}
}

func TestSyncReleasesPendingFree(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	// All in one epoch: every split's pre-image was never durable, so
	// §3.3 step (3) applies — pages are freed immediately, reusing the
	// existing prevPtr.
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	if tr.Freelist().Len() == 0 {
		t.Fatal("splits of never-synced pages must free them immediately (step 3)")
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Now every page is durable: the next splits follow step (2) — the
	// superseded page becomes the prevPtr and is freed only after the
	// NEXT sync.
	freeAfter := tr.Freelist().Len()
	for i := 2000; i < 2200; i++ {
		mustInsert(t, tr, i)
	}
	if tr.SplitCount() == 0 {
		t.Fatal("expected splits in second phase")
	}
	pendingBefore := len(tr.pendingFree)
	if pendingBefore == 0 {
		t.Fatal("splits of durable pages must defer freeing to the next sync (step 2)")
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(tr.pendingFree) != 0 {
		t.Fatal("sync must drain the to-be-freed list")
	}
	if tr.Freelist().Len() <= freeAfter {
		t.Fatal("deferred pages must reach the freelist after the sync")
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			rng := rand.New(rand.NewSource(9))
			keys := make(map[string]string)
			for i := 0; i < 1500; i++ {
				k := make([]byte, 1+rng.Intn(64))
				rng.Read(k)
				if _, dup := keys[string(k)]; dup {
					continue
				}
				val := fmt.Sprintf("val-%d", i)
				keys[string(k)] = val
				if err := tr.Insert(k, []byte(val)); err != nil {
					t.Fatalf("insert %x: %v", k, err)
				}
			}
			for k, want := range keys {
				got, err := tr.Lookup([]byte(k))
				if err != nil {
					t.Fatalf("lookup %x: %v", k, err)
				}
				if string(got) != want {
					t.Fatalf("lookup %x = %q, want %q", k, got, want)
				}
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	tr, rec := newTreeObs(t, Shadow)
	for i := 0; i < 1000; i++ {
		mustInsert(t, tr, i)
	}
	mustLookup(t, tr, 1)
	if n, err := tr.Count(); err != nil || n != 1000 {
		t.Fatalf("Count = %d, %v; want 1000", n, err)
	}
	if tr.SplitCount() == 0 || rec.Get(obs.SplitStart) != tr.SplitCount() || rec.Get(obs.RootSplit) == 0 {
		t.Fatalf("splits: SplitCount %d, split.start %d, split.root %d",
			tr.SplitCount(), rec.Get(obs.SplitStart), rec.Get(obs.RootSplit))
	}
	// Descents check ranges: a leaf image in the wrong place, with no
	// earlier version to rebuild from, is quarantined, not served as if it
	// were the leaf its parent names.
	tr, key := misplaceLeaf(t, Options{})
	if _, err := tr.Lookup(key); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("lookup over a misplaced leaf: %v, want ErrQuarantined", err)
	}
}

func TestHeightGrowth(t *testing.T) {
	tr, _ := newTree(t, Reorg)
	h, err := tr.Height()
	if err != nil || h != 0 {
		t.Fatalf("empty height = %d, %v", h, err)
	}
	mustInsert(t, tr, 1)
	h, _ = tr.Height()
	if h != 1 {
		t.Fatalf("single-leaf height = %d", h)
	}
	for i := 2; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	h, _ = tr.Height()
	if h < 2 {
		t.Fatalf("height after 2000 inserts = %d", h)
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	done := make(chan error, 9)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				k := rng.Intn(2000)
				v, err := tr.Lookup(u32key(k))
				if err != nil {
					done <- fmt.Errorf("lookup %d: %w", k, err)
					return
				}
				if !bytes.Equal(v, val(k)) {
					done <- fmt.Errorf("lookup %d: wrong value", k)
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	go func() {
		for i := 2000; i < 3000; i++ {
			if err := tr.Insert(u32key(i), val(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}
