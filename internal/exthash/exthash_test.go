package exthash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func newIdx(t *testing.T) (*Index, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, d
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%08d", i)) }

func TestInsertLookup(t *testing.T) {
	ix, _ := newIdx(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := ix.Lookup(key(i))
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("lookup %d = %q", i, v)
		}
	}
	if _, err := ix.Lookup(key(n)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if g, _ := ix.GlobalDepth(); g == 0 {
		t.Fatal("directory never doubled")
	}
	if ix.Splits == 0 || ix.Doublings == 0 {
		t.Fatal("expected splits and doublings")
	}
	cnt, err := ix.Count()
	if err != nil || cnt != n {
		t.Fatalf("Count = %d, %v", cnt, err)
	}
	if err := ix.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestDuplicateAndValidation(t *testing.T) {
	ix, _ := newIdx(t)
	if err := ix.Insert(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(key(1), val(2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := ix.Insert(nil, val(1)); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := ix.Insert(make([]byte, MaxKeySize+1), nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestDelete(t *testing.T) {
	ix, _ := newIdx(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := ix.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		_, err := ix.Lookup(key(i))
		if i%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("deleted key %d: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("live key %d: %v", i, err)
		}
	}
	if err := ix.Delete(key(0)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReopen(t *testing.T) {
	d := storage.NewMemDisk()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := ix2.Lookup(key(i)); err != nil {
			t.Fatalf("key %d lost across reopen: %v", i, err)
		}
	}
}

// crashScenario builds: nPre committed keys, one sync, then trigger keys
// with the writes still pending.
func crashScenario(t *testing.T, nPre, trigger int) *storage.MemDisk {
	t.Helper()
	d := storage.NewMemDisk()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := nPre; i < nPre+trigger; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return d
}

func verifyRecovered(t *testing.T, d *storage.MemDisk, committed int, label string) {
	t.Helper()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	for i := 0; i < committed; i++ {
		v, err := ix.Lookup(key(i))
		if err != nil {
			t.Fatalf("%s: committed key %d lost: %v", label, i, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("%s: committed key %d corrupt: %q", label, i, v)
		}
	}
	if err := ix.Check(); err != nil {
		t.Fatalf("%s: Check after recovery: %v", label, err)
	}
	// Still writable.
	for i := 0; i < 50; i++ {
		if err := ix.Insert(key(1_000_000+i), val(i)); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatalf("%s: Check after post-recovery inserts: %v", label, err)
	}
}

// findSplitTrigger returns an nPre such that one more insert splits a
// bucket without doubling the directory.
func findSplitTrigger(t *testing.T) int {
	t.Helper()
	d := storage.NewMemDisk()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ix.Doublings < 2 { // past the earliest growth spurts
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	splits := ix.Splits
	doubles := ix.Doublings
	for {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if ix.Doublings != doubles {
			splits = ix.Splits
			doubles = ix.Doublings
			continue
		}
		if ix.Splits > splits {
			return i - 1
		}
		if i > 1_000_000 {
			t.Fatal("no split found")
		}
	}
}

// TestBucketSplitCrashAllSubsets is the exthash counterpart of the B-tree
// exhaustive experiment: every durable subset of the pages written by one
// bucket split is crashed and recovered.
func TestBucketSplitCrashAllSubsets(t *testing.T) {
	nPre := findSplitTrigger(t)
	probe := crashScenario(t, nPre, 1)
	n := len(probe.PendingPages())
	if n < 2 || n > 14 {
		t.Fatalf("scenario has %d pending pages", n)
	}
	for mask := uint64(0); mask < uint64(1)<<n; mask++ {
		d := crashScenario(t, nPre, 1)
		if err := d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, d, nPre, fmt.Sprintf("mask %0*b", n, mask))
	}
}

// TestDirectoryDoublingCrash loses parts of a freshly doubled directory.
func TestDirectoryDoublingCrash(t *testing.T) {
	// Find a trigger whose insert causes a doubling.
	d0 := storage.NewMemDisk()
	probe, err := Open(d0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for probe.Doublings < 3 {
		if err := probe.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Walk back to just before the third doubling.
	nPre := i - 1
	d := crashScenario(t, nPre, 1)
	n := len(d.PendingPages())
	if n > 14 {
		t.Skipf("doubling touched %d pages; sampling instead", n)
	}
	for mask := uint64(0); mask < uint64(1)<<n; mask++ {
		dd := crashScenario(t, nPre, 1)
		if err := dd.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, dd, nPre, fmt.Sprintf("double mask %0*b", n, mask))
	}
}

// TestCrashFuzz runs multi-epoch random crash rounds, asserting committed
// keys always survive.
func TestCrashFuzz(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := storage.NewMemDisk()
		committed := 0
		next := 0
		for round := 0; round < 6; round++ {
			ix, err := Open(d, 0, nil)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			for i := 0; i < committed; i++ {
				if _, err := ix.Lookup(key(i)); err != nil {
					t.Fatalf("seed %d round %d: committed key %d lost: %v", seed, round, i, err)
				}
			}
			// Keys beyond `committed` may or may not have survived the
			// crash; restart the insert cursor at the committed
			// boundary and skip the uncommitted survivors the index
			// still holds.
			next = committed
			ops := 100 + rng.Intn(500)
			for j := 0; j < ops; j++ {
				if _, err := ix.Lookup(key(next)); err == nil {
					next++
					continue
				}
				if err := ix.Insert(key(next), val(next)); err != nil {
					t.Fatalf("seed %d round %d: insert %d: %v", seed, round, next, err)
				}
				next++
				if rng.Intn(150) == 0 {
					if err := ix.Sync(); err != nil {
						t.Fatal(err)
					}
					committed = next
				}
			}
			if rng.Intn(2) == 0 {
				if err := ix.Sync(); err != nil {
					t.Fatal(err)
				}
				committed = next
			}
			if err := ix.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			err = d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
				var keep []storage.PageNo
				for _, no := range pending {
					if rng.Intn(2) == 0 {
						keep = append(keep, no)
					}
				}
				return keep
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Open(d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < committed; i++ {
			if _, err := ix.Lookup(key(i)); err != nil {
				t.Fatalf("seed %d final: committed key %d lost: %v", seed, i, err)
			}
		}
		if err := ix.Check(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
	}
}

// TestQuickMatchesMap: property test against a reference map.
func TestQuickMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, err := Open(storage.NewMemDisk(), 0, nil)
		if err != nil {
			return false
		}
		ref := make(map[string]string)
		for i := 0; i < 400+rng.Intn(800); i++ {
			k := make([]byte, 1+rng.Intn(30))
			rng.Read(k)
			if _, dup := ref[string(k)]; dup {
				continue
			}
			v := fmt.Sprintf("v%d", i)
			if err := ix.Insert(k, []byte(v)); err != nil {
				return false
			}
			ref[string(k)] = v
		}
		for k := range ref {
			if rng.Intn(4) == 0 {
				if err := ix.Delete([]byte(k)); err != nil {
					return false
				}
				delete(ref, k)
			}
		}
		for k, want := range ref {
			got, err := ix.Lookup([]byte(k))
			if err != nil || string(got) != want {
				return false
			}
		}
		cnt, err := ix.Count()
		if err != nil || cnt != len(ref) {
			return false
		}
		return ix.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
