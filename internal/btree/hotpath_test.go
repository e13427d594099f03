package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
)

// The hot-path allocation gates. These use testing.AllocsPerRun, which
// runs the body once to warm up and then measures; GC is disabled for the
// measurement so a collection cannot empty the sync.Pools mid-run and
// charge the refill to the operation under test.

func measureAllocs(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestLookupZeroAllocs: a warm Lookup hit through LookupInto with a reused
// destination buffer must not allocate.
func TestLookupZeroAllocs(t *testing.T) {
	tr, _ := newTree(t, Normal)
	const n = 200
	for i := 0; i < n; i++ {
		mustInsert(t, tr, i)
	}
	want := make([][]byte, n)
	for i := range want {
		want[i] = val(i)
	}
	key := make([]byte, 4)
	dst := make([]byte, 0, 64)
	i := 0
	allocs := measureAllocs(500, func() {
		binary.BigEndian.PutUint32(key, uint32(i%n))
		v, err := tr.LookupInto(key, dst[:0])
		if err != nil {
			t.Fatalf("LookupInto(%d): %v", i%n, err)
		}
		if !bytes.Equal(v, want[i%n]) {
			t.Fatalf("LookupInto(%d) = %q", i%n, v)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm lookup hit: %.1f allocs/op, want 0", allocs)
	}
}

// TestInsertZeroAllocs: a no-split insert into a warm tree must not
// allocate — the descent scratch, path slice, and in-page encode are all
// pooled or in place.
func TestInsertZeroAllocs(t *testing.T) {
	tr, _ := newTree(t, Normal)
	// Warm the tree past root creation so every measured insert takes the
	// shared fast path; 4-byte keys + 9-byte values leave a fresh leaf with
	// room for hundreds more, so none of the measured inserts split.
	for i := 0; i < 8; i++ {
		mustInsert(t, tr, i)
	}
	key := make([]byte, 4)
	value := []byte("v00000000")
	i := 100
	allocs := measureAllocs(200, func() {
		binary.BigEndian.PutUint32(key, uint32(i))
		if err := tr.Insert(key, value); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("no-split insert: %.1f allocs/op, want 0", allocs)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestInsertBatchMatchesInsert: a batch lands exactly the same tree state
// as the equivalent loop of single inserts, including across splits.
func TestInsertBatchMatchesInsert(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			const n = 3000
			keys := make([][]byte, 0, n)
			values := make([][]byte, 0, n)
			for i := 0; i < n; i++ {
				j := (i * 7919) % n // scrambled order: runs + gaps
				keys = append(keys, u32key(j))
				values = append(values, val(j))
			}
			if err := tr.InsertBatch(keys, values); err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			for i := 0; i < n; i++ {
				mustLookup(t, tr, i)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
			if got, err := tr.Count(); err != nil || got != n {
				t.Fatalf("Count = %d, %v; want %d", got, err, n)
			}
		})
	}
}

// TestInsertBatchDuplicate: a duplicate inside the batch surfaces
// ErrDuplicateKey; previously applied keys stay applied.
func TestInsertBatchDuplicate(t *testing.T) {
	tr, _ := newTree(t, Normal)
	mustInsert(t, tr, 5)
	err := tr.InsertBatch(
		[][]byte{u32key(1), u32key(5), u32key(9)},
		[][]byte{val(1), val(5), val(9)},
	)
	if err == nil {
		t.Fatal("duplicate in batch did not error")
	}
	mustLookup(t, tr, 1) // sorted prefix before the duplicate is applied
}

// TestInsertBatchConcurrent exercises batched inserts racing point inserts
// and lookups; run under -race this is the hotpath smoke gate.
func TestInsertBatchConcurrent(t *testing.T) {
	tr, _ := newTree(t, Hybrid)
	const (
		workers = 4
		perW    = 512 // a multiple of batchSz: chunks tile the range exactly
		batchSz = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * perW
			if w%2 == 0 {
				for off := 0; off < perW; off += batchSz {
					keys := make([][]byte, 0, batchSz)
					values := make([][]byte, 0, batchSz)
					for i := 0; i < batchSz; i++ {
						keys = append(keys, u32key(base+off+i))
						values = append(values, val(base+off+i))
					}
					if err := tr.InsertBatch(keys, values); err != nil {
						t.Errorf("worker %d: InsertBatch: %v", w, err)
						return
					}
				}
			} else {
				for i := 0; i < perW; i++ {
					if err := tr.Insert(u32key(base+i), val(base+i)); err != nil {
						t.Errorf("worker %d: Insert(%d): %v", w, base+i, err)
						return
					}
					if i%16 == 0 {
						probe := u32key(base + i)
						if _, err := tr.Lookup(probe); err != nil {
							t.Errorf("worker %d: Lookup(%d): %v", w, base+i, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < workers*perW; i++ {
		mustLookup(t, tr, i)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got, err := tr.Count(); err != nil || got != workers*perW {
		t.Fatalf("Count = %d, %v; want %d", got, err, workers*perW)
	}
}

// TestLookupIntoAppends: LookupInto appends to dst and preserves its
// prefix, the contract callers amortizing allocations rely on.
func TestLookupIntoAppends(t *testing.T) {
	tr, _ := newTree(t, Normal)
	mustInsert(t, tr, 1)
	dst := []byte("prefix:")
	out, err := tr.LookupInto(u32key(1), dst)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("prefix:%s", val(1))
	if string(out) != want {
		t.Fatalf("LookupInto = %q, want %q", out, want)
	}
}
