package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func newTreeT(t *testing.T) (*Tree, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// pointRect makes a small rectangle around a grid point.
func pointRect(i int) Rect {
	x := int32(i%1000) * 10
	y := int32(i/1000) * 10
	return Rect{x, y, x + 5, y + 5}
}

func TestRectPrimitives(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	c := Rect{20, 20, 30, 30}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Fatal("intersection wrong")
	}
	if !a.Union(b).Contains(a) || !a.Union(b).Contains(b) {
		t.Fatal("union must contain both")
	}
	if a.Union(c) != (Rect{0, 0, 30, 30}) {
		t.Fatal("union bounds wrong")
	}
	if a.Area() != 100 {
		t.Fatalf("area = %d", a.Area())
	}
	if (Rect{5, 5, 1, 1}).Valid() {
		t.Fatal("inverted rect must be invalid")
	}
	if !a.Contains(Rect{2, 2, 8, 8}) || a.Contains(b) {
		t.Fatal("containment wrong")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := newTreeT(t)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Point query: exactly one hit.
	hits, err := tr.Search(pointRect(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != 42 {
		t.Fatalf("hits = %+v", hits)
	}
	// Window over the first row: 10 hits.
	hits, err = tr.Search(Rect{0, 0, 95, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 {
		t.Fatalf("window returned %d hits", len(hits))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthAndSplits(t *testing.T) {
	tr, _ := newTreeT(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Splits == 0 {
		t.Fatal("expected splits")
	}
	h, err := tr.Height()
	if err != nil || h < 2 {
		t.Fatalf("height %d, %v", h, err)
	}
	cnt, err := tr.Count()
	if err != nil || cnt != n {
		t.Fatalf("Count = %d, %v", cnt, err)
	}
	// Every entry individually findable.
	for i := 0; i < n; i += 47 {
		hits, err := tr.Search(pointRect(i))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range hits {
			if h.ID == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("entry %d unfindable", i)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTreeT(t)
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 2 {
		if err := tr.Delete(pointRect(i), uint64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	cnt, err := tr.Count()
	if err != nil || cnt != 500 {
		t.Fatalf("Count = %d, %v", cnt, err)
	}
	if err := tr.Delete(pointRect(0), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingRects(t *testing.T) {
	tr, _ := newTreeT(t)
	rng := rand.New(rand.NewSource(5))
	type rec struct {
		r  Rect
		id uint64
	}
	var recs []rec
	for i := 0; i < 2000; i++ {
		x := int32(rng.Intn(10000))
		y := int32(rng.Intn(10000))
		w := int32(1 + rng.Intn(500))
		h := int32(1 + rng.Intn(500))
		r := Rect{x, y, x + w, y + h}
		if err := tr.Insert(r, uint64(i)); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{r, uint64(i)})
	}
	// Brute-force cross-check on random windows.
	for q := 0; q < 20; q++ {
		x := int32(rng.Intn(9000))
		y := int32(rng.Intn(9000))
		query := Rect{x, y, x + 1000, y + 1000}
		want := make(map[uint64]bool)
		for _, rc := range recs {
			if rc.r.Intersects(query) {
				want[rc.id] = true
			}
		}
		hits, err := tr.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", q, len(hits), len(want))
		}
		for _, h := range hits {
			if !want[h.ID] {
				t.Fatalf("query %d: spurious hit %d", q, h.ID)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestQuadraticSplitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var entries []entry
	for i := 0; i < 200; i++ {
		x := int32(rng.Intn(1000))
		y := int32(rng.Intn(1000))
		entries = append(entries, entry{rect: Rect{x, y, x + 10, y + 10}, id: uint64(i)})
	}
	a1, b1 := quadraticSplit(entries)
	a2, b2 := quadraticSplit(entries)
	if len(a1) != len(a2) || len(b1) != len(b2) {
		t.Fatal("split not deterministic in sizes")
	}
	for i := range a1 {
		if a1[i].id != a2[i].id {
			t.Fatal("split not deterministic in membership")
		}
	}
	// Both groups respect the minimum fill.
	if len(a1) < minFill || len(b1) < minFill {
		t.Fatalf("groups %d/%d below minimum fill %d", len(a1), len(b1), minFill)
	}
}

func TestReopen(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := tr2.Count()
	if err != nil || cnt != 1500 {
		t.Fatalf("Count after reopen = %d, %v", cnt, err)
	}
}

// crash harness mirroring the B-tree's.
func crashScenario(t *testing.T, nPre, trigger int) *storage.MemDisk {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := nPre; i < nPre+trigger; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return d
}

func verifyRecovered(t *testing.T, d *storage.MemDisk, committed int, label string) {
	t.Helper()
	tr, err := Open(d, 0, nil)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	for i := 0; i < committed; i++ {
		hits, err := tr.Search(pointRect(i))
		if err != nil {
			t.Fatalf("%s: search %d: %v", label, i, err)
		}
		found := false
		for _, h := range hits {
			if h.ID == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: committed entry %d lost", label, i)
		}
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatalf("%s: RecoverAll: %v", label, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: Check: %v", label, err)
	}
	for i := 0; i < 30; i++ {
		if err := tr.Insert(pointRect(900_000+i), uint64(900_000+i)); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: Check after inserts: %v", label, err)
	}
}

// findSplitTrigger finds an nPre whose next insert splits a node.
func findSplitTrigger(t *testing.T) int {
	t.Helper()
	tr, _ := newTreeT(t)
	i := 0
	for tr.Splits < 3 {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	base := tr.Splits
	for {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if tr.Splits > base {
			return i - 1
		}
		if i > 1_000_000 {
			t.Fatal("no split found")
		}
	}
}

// TestSplitCrashAllSubsets: the R-tree counterpart of the exhaustive
// experiment — every durable subset of one node split's pages.
func TestSplitCrashAllSubsets(t *testing.T) {
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

// TestCrashFuzz: multi-epoch random crashes; committed entries always
// survive.
func TestCrashFuzz(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := storage.NewMemDisk()
		committed := 0
		for round := 0; round < 6; round++ {
			tr, err := Open(d, 0, nil)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			for i := 0; i < committed; i++ {
				hits, err := tr.Search(pointRect(i))
				if err != nil {
					t.Fatalf("seed %d round %d: search %d: %v", seed, round, i, err)
				}
				found := false
				for _, h := range hits {
					if h.ID == uint64(i) {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d round %d: committed entry %d lost", seed, round, i)
				}
			}
			next := committed
			ops := 100 + rng.Intn(400)
			for j := 0; j < ops; j++ {
				// Skip entries that survived uncommitted.
				if hits, err := tr.Search(pointRect(next)); err == nil && containsID(hits, uint64(next)) {
					next++
					continue
				}
				if err := tr.Insert(pointRect(next), uint64(next)); err != nil {
					t.Fatalf("seed %d round %d: insert %d: %v", seed, round, next, err)
				}
				next++
				if rng.Intn(150) == 0 {
					if err := tr.Sync(); err != nil {
						t.Fatal(err)
					}
					committed = next
				}
			}
			if rng.Intn(2) == 0 {
				if err := tr.Sync(); err != nil {
					t.Fatal(err)
				}
				committed = next
			}
			if err := tr.Pool().FlushDirty(); err != nil {
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
		tr, err := Open(d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < committed; i++ {
			hits, err := tr.Search(pointRect(i))
			if err != nil || !containsID(hits, uint64(i)) {
				t.Fatalf("seed %d final: committed entry %d lost (%v)", seed, i, err)
			}
		}
		if err := tr.RecoverAll(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
	}
}

func containsID(hits []Hit, id uint64) bool {
	for _, h := range hits {
		if h.ID == id {
			return true
		}
	}
	return false
}

// TestQuickMatchesBruteForce: property test against exhaustive scan.
func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := Open(storage.NewMemDisk(), 0, nil)
		if err != nil {
			return false
		}
		type rec struct {
			r  Rect
			id uint64
		}
		var recs []rec
		n := 200 + rng.Intn(600)
		for i := 0; i < n; i++ {
			x := int32(rng.Intn(5000))
			y := int32(rng.Intn(5000))
			r := Rect{x, y, x + int32(rng.Intn(200)), y + int32(rng.Intn(200))}
			if err := tr.Insert(r, uint64(i)); err != nil {
				return false
			}
			recs = append(recs, rec{r, uint64(i)})
		}
		for q := 0; q < 5; q++ {
			x := int32(rng.Intn(4000))
			y := int32(rng.Intn(4000))
			query := Rect{x, y, x + 800, y + 800}
			want := 0
			for _, rc := range recs {
				if rc.r.Intersects(query) {
					want++
				}
			}
			hits, err := tr.Search(query)
			if err != nil || len(hits) != want {
				return false
			}
		}
		return tr.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
