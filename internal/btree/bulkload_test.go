package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/storage"
)

// randomItems generates n items with keys drawn from a space small enough
// to force duplicate keys; values encode the item's position so the
// first-occurrence-wins contract is observable.
func randomItems(rng *rand.Rand, n, keySpace int) []Item {
	items := make([]Item, n)
	for i := range items {
		k := u32key(rng.Intn(keySpace))
		items[i] = Item{Key: k, Value: []byte(fmt.Sprintf("pos%06d", i))}
	}
	return items
}

// insertTwin builds the reference tree one insert at a time from the same
// unsorted run, skipping duplicates the way callers of Insert must.
func insertTwin(t *testing.T, v Variant, items []Item) *Tree {
	t.Helper()
	tr, _ := newTree(t, v)
	for _, it := range items {
		if err := tr.Insert(it.Key, it.Value); err != nil && !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("twin insert: %v", err)
		}
	}
	return tr
}

func fullScan(t *testing.T, tr *Tree) (keys, vals [][]byte) {
	t.Helper()
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return keys, vals
}

// The differential satellite: for random key sets with duplicates across
// every variant and fill factors 0.5–1.0, a bulk-loaded tree and an
// insert-built tree return identical full scans and both pass the strict
// structural check.
func TestBulkLoadDifferential(t *testing.T) {
	fills := []float64{0.5, 0.7, 0.85, 1.0}
	for _, v := range allVariants {
		for _, ff := range fills {
			v, ff := v, ff
			t.Run(fmt.Sprintf("%v/fill=%.2f", v, ff), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ff*100) + int64(v)))
				items := randomItems(rng, 3000, 2200)

				loaded, _ := newTree(t, v)
				stats, err := loaded.bulkLoad(items, ff)
				if err != nil {
					t.Fatalf("BulkLoad: %v", err)
				}
				twin := insertTwin(t, v, items)

				lk, lv := fullScan(t, loaded)
				tk, tv := fullScan(t, twin)
				if len(lk) != len(tk) {
					t.Fatalf("scan lengths differ: bulk %d vs insert %d", len(lk), len(tk))
				}
				if stats.Keys != len(lk) {
					t.Fatalf("stats.Keys = %d, scan returned %d", stats.Keys, len(lk))
				}
				for i := range lk {
					if !bytes.Equal(lk[i], tk[i]) || !bytes.Equal(lv[i], tv[i]) {
						t.Fatalf("scan diverges at %d: bulk (%q,%q) vs insert (%q,%q)",
							i, lk[i], lv[i], tk[i], tv[i])
					}
				}
				if err := loaded.Check(CheckStrict); err != nil {
					t.Fatalf("bulk-loaded tree fails Check: %v", err)
				}
				if err := twin.Check(CheckStrict); err != nil {
					t.Fatalf("insert-built tree fails Check: %v", err)
				}
				// The loaded tree must keep working as a live index.
				if err := loaded.Insert([]byte("zzz-after-load"), []byte("x")); err != nil {
					t.Fatalf("insert after load: %v", err)
				}
				if err := loaded.Delete(lk[0]); err != nil {
					t.Fatalf("delete after load: %v", err)
				}
				if err := loaded.Check(CheckStrict); err != nil {
					t.Fatalf("Check after post-load mutations: %v", err)
				}
			})
		}
	}
}

func TestBulkLoadEdgeCases(t *testing.T) {
	for _, v := range allVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			if stats, err := tr.BulkLoad(nil); err != nil || stats.Root != 0 {
				t.Fatalf("empty load: stats=%+v err=%v", stats, err)
			}
			one := []Item{{Key: u32key(7), Value: val(7)}}
			stats, err := tr.BulkLoad(one)
			if err != nil {
				t.Fatalf("single-item load: %v", err)
			}
			if stats.Leaves != 1 || stats.Levels != 1 {
				t.Fatalf("single-item load built %+v, want one root leaf", stats)
			}
			if got, err := tr.Lookup(u32key(7)); err != nil || !bytes.Equal(got, val(7)) {
				t.Fatalf("lookup after single load: %q, %v", got, err)
			}
			if _, err := tr.BulkLoad(one); !errors.Is(err, ErrNotEmpty) {
				t.Fatalf("load into non-empty tree: got %v, want ErrNotEmpty", err)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

// BulkLoad's durability contract: once it returns, a crash that loses
// every pending write must not lose the loaded tree.
func TestBulkLoadDurable(t *testing.T) {
	for _, v := range protectedVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, d := newTree(t, v)
			items := make([]Item, 2000)
			for i := range items {
				items[i] = Item{Key: u32key(i), Value: val(i)}
			}
			if _, err := tr.BulkLoad(items); err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
			// Power cut that loses everything not yet synced: the load
			// already made itself durable, so nothing may go missing.
			if err := d.CrashPartial(storage.CrashNone); err != nil {
				t.Fatal(err)
			}
			re, err := Open(d.CloneStable(), v, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			for _, it := range items {
				got, err := re.Lookup(it.Key)
				if err != nil || !bytes.Equal(got, it.Value) {
					t.Fatalf("key %q after crash: %q, %v", it.Key, got, err)
				}
			}
			if err := re.Check(CheckStrict); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

// BulkReplace swaps contents atomically and reclaims the old structure.
func TestBulkReplace(t *testing.T) {
	for _, v := range allVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, _ := newTree(t, v)
			for i := 0; i < 500; i++ {
				mustInsert(t, tr, i)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			// Rebuild with shifted contents: keys 250..749, new values.
			items := make([]Item, 500)
			for i := range items {
				items[i] = Item{Key: u32key(i + 250), Value: []byte(fmt.Sprintf("new%05d", i))}
			}
			stats, err := tr.BulkReplace(items)
			if err != nil {
				t.Fatalf("BulkReplace: %v", err)
			}
			if stats.Keys != 500 {
				t.Fatalf("stats.Keys = %d, want 500", stats.Keys)
			}
			for i := 0; i < 250; i++ {
				if _, err := tr.Lookup(u32key(i)); !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("old key %d survived the swap: %v", i, err)
				}
			}
			for i := 0; i < 500; i++ {
				got, err := tr.Lookup(u32key(i + 250))
				if err != nil || string(got) != fmt.Sprintf("new%05d", i) {
					t.Fatalf("new key %d: %q, %v", i+250, got, err)
				}
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check after replace: %v", err)
			}
			// The freelist got the old pages back: growth should reuse
			// them instead of extending the file without bound.
			before := tr.NumPages()
			for i := 1000; i < 1400; i++ {
				mustInsert(t, tr, i)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if after := tr.NumPages(); after > before+uint32(stats.Leaves+stats.Internal)+8 {
				t.Fatalf("file grew %d -> %d pages; old structure not reused", before, after)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatalf("Check after reuse: %v", err)
			}
		})
	}
}

// The property satellite, quick_test.go style: over random leaf-separator
// distributions (random key lengths, random fill factors) the parent-level
// build never produces an underfull internal page except the rightmost at
// each level, and lookup of every loaded key succeeds.
func TestQuickBulkLoadPacking(t *testing.T) {
	for _, v := range []Variant{Normal, Shadow, Hybrid} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				ff := 0.5 + float64(rng.Intn(51))/100 // 0.50 .. 1.00
				n := 500 + rng.Intn(2500)
				items := make([]Item, 0, n)
				seen := map[string]bool{}
				for i := 0; i < n; i++ {
					k := make([]byte, 1+rng.Intn(48))
					rng.Read(k)
					if seen[string(k)] {
						continue
					}
					seen[string(k)] = true
					items = append(items, Item{Key: k, Value: []byte("v")})
				}
				tr, err := Open(storage.NewMemDisk(), v, Options{})
				if err != nil {
					return false
				}
				if _, err := tr.bulkLoad(items, ff); err != nil {
					t.Logf("seed %d: BulkLoad: %v", seed, err)
					return false
				}
				for _, it := range items {
					if _, err := tr.Lookup(it.Key); err != nil {
						t.Logf("seed %d: lookup %q: %v", seed, it.Key, err)
						return false
					}
				}
				if err := tr.Check(CheckStrict); err != nil {
					t.Logf("seed %d: Check: %v", seed, err)
					return false
				}
				if err := checkFillInvariant(tr, ff); err != nil {
					t.Logf("seed %d ff %.2f: %v", seed, ff, err)
					return false
				}
				sort.Slice(items, func(i, j int) bool { return keyLess(items[i].Key, items[j].Key) })
				i := 0
				err = tr.Scan(nil, nil, func(k, _ []byte) bool {
					ok := i < len(items) && bytes.Equal(k, items[i].Key)
					i++
					return ok
				})
				return err == nil && i == len(items)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkFillInvariant walks every level of the tree left to right and
// verifies the loader's packing guarantee: a page is closed only because
// the next item would have pushed it past the fill-factor budget, so no
// page but the rightmost of its level is underfull.
func checkFillInvariant(tr *Tree, ff float64) error {
	fresh := page.New()
	fresh.Init(page.TypeLeaf, 0)
	freshFree := fresh.FreeSpace()
	budget := int(ff * float64(freshFree))

	mf, err := tr.pool.Get(0)
	if err != nil {
		return err
	}
	no := (metaPage{mf.Data}).root()
	mf.Unpin()
	for no != 0 {
		f, err := tr.pool.Get(no)
		if err != nil {
			return err
		}
		p := f.Data
		levelHead := no
		var nextLevel uint32
		if p.Type() == page.TypeInternal {
			e, err := internalEntry(p, 0)
			if err != nil {
				f.Unpin()
				return err
			}
			nextLevel = e.child
		}
		// Walk the level's peer chain.
		for {
			right := p.RightPeer()
			if right == 0 {
				f.Unpin()
				break // rightmost page: allowed to be underfull
			}
			rf, err := tr.pool.Get(right)
			if err != nil {
				f.Unpin()
				return err
			}
			used := freshFree - p.FreeSpace()
			if rf.Data.NKeys() == 0 {
				rf.Unpin()
				f.Unpin()
				return fmt.Errorf("level page %d: empty right peer %d", levelHead, right)
			}
			nextCost := len(rf.Data.Item(0)) + 4
			if used+nextCost <= budget {
				rf.Unpin()
				f.Unpin()
				return fmt.Errorf("page %d underfull: used %d + next %d <= budget %d (ff %.2f)",
					no, used, nextCost, budget, ff)
			}
			f.Unpin()
			f, p, no = rf, rf.Data, right
		}
		no = nextLevel
	}
	return nil
}

// errSimCrash marks the simulated power cut the sync-point crash disk
// injects; the in-flight bulk load aborts with it.
var errSimCrash = errors.New("simulated crash at sync point")

type syncCrashDisk struct {
	*storage.MemDisk
	armed   bool
	failAt  int // crash on the failAt-th Sync after arming; 0 = count only
	calls   int
	rng     *rand.Rand
	crashed bool
}

func (d *syncCrashDisk) Sync() error {
	if !d.armed {
		return d.MemDisk.Sync()
	}
	d.calls++
	if d.failAt > 0 && d.calls == d.failAt && !d.crashed {
		d.crashed = true
		// Mid-sync power cut: a random subset of the pending writes
		// reaches the platter, the rest are lost.
		_ = d.MemDisk.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var keep []storage.PageNo
			for _, no := range pending {
				if d.rng.Intn(2) == 0 {
					keep = append(keep, no)
				}
			}
			return keep
		})
		return errSimCrash
	}
	return d.MemDisk.Sync()
}

// The crash-enumeration satellite, in-process flavor: kill the load at
// every sync point (with randomized partial write loss) and assert the
// reopened tree serves either the old state or the complete new one —
// never a torn half-built index.
func TestBulkLoadCrashAtEverySyncPoint(t *testing.T) {
	const nKeys = 600
	items := make([]Item, nKeys)
	for i := range items {
		items[i] = Item{Key: u32key(i), Value: val(i)}
	}
	for _, v := range protectedVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			// Dry run to count the load's sync points.
			d := &syncCrashDisk{MemDisk: storage.NewMemDisk(), rng: rand.New(rand.NewSource(1))}
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.armed = true
			if _, err := tr.BulkLoad(items); err != nil {
				t.Fatalf("dry run: %v", err)
			}
			total := d.calls
			if total == 0 {
				t.Fatal("bulk load issued no syncs; crash enumeration is vacuous")
			}
			for failAt := 1; failAt <= total; failAt++ {
				for trial := 0; trial < 4; trial++ {
					d := &syncCrashDisk{
						MemDisk: storage.NewMemDisk(),
						rng:     rand.New(rand.NewSource(int64(failAt*100 + trial))),
					}
					tr, err := Open(d, v, Options{})
					if err != nil {
						t.Fatal(err)
					}
					d.armed = true
					d.failAt = failAt
					if _, err := tr.BulkLoad(items); !errors.Is(err, errSimCrash) {
						t.Fatalf("failAt=%d: load returned %v, want simulated crash", failAt, err)
					}
					verifyAllOrNothing(t, d.MemDisk, v, items, failAt)
				}
			}
		})
	}
}

// verifyAllOrNothing reopens the stable image and asserts the tree is
// either empty or serves every loaded key, and passes the strict check.
func verifyAllOrNothing(t *testing.T, d *storage.MemDisk, v Variant, items []Item, failAt int) {
	t.Helper()
	tr, err := Open(d.CloneStable(), v, Options{})
	if err != nil {
		t.Fatalf("failAt=%d: reopen: %v", failAt, err)
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatalf("failAt=%d: RecoverAll: %v", failAt, err)
	}
	_, err = tr.Lookup(items[0].Key)
	switch {
	case errors.Is(err, ErrKeyNotFound):
		// Old (empty) state: no key may be visible.
		n, cerr := tr.Count()
		if cerr != nil || n != 0 {
			t.Fatalf("failAt=%d: torn state: %d keys visible after losing the root (%v)", failAt, n, cerr)
		}
	case err == nil:
		// New state won: it must be complete.
		for _, it := range items {
			got, lerr := tr.Lookup(it.Key)
			if lerr != nil || !bytes.Equal(got, it.Value) {
				t.Fatalf("failAt=%d: torn state: key %q -> %q, %v", failAt, it.Key, got, lerr)
			}
		}
	default:
		t.Fatalf("failAt=%d: lookup: %v", failAt, err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("failAt=%d: Check: %v", failAt, err)
	}
}

// Same enumeration for BulkReplace: the old generation's values must stay
// served in full unless the new generation committed in full.
func TestBulkReplaceCrashAtEverySyncPoint(t *testing.T) {
	const nKeys = 400
	oldVal := func(i int) []byte { return []byte(fmt.Sprintf("old%05d", i)) }
	newVal := func(i int) []byte { return []byte(fmt.Sprintf("new%05d", i)) }
	items := make([]Item, nKeys)
	for i := range items {
		items[i] = Item{Key: u32key(i), Value: newVal(i)}
	}
	for _, v := range protectedVariants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			setup := func(seed int64) (*syncCrashDisk, *Tree) {
				d := &syncCrashDisk{MemDisk: storage.NewMemDisk(), rng: rand.New(rand.NewSource(seed))}
				tr, err := Open(d, v, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < nKeys; i++ {
					if err := tr.Insert(u32key(i), oldVal(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.Sync(); err != nil {
					t.Fatal(err)
				}
				return d, tr
			}
			d, tr := setup(1)
			d.armed = true
			if _, err := tr.BulkReplace(items); err != nil {
				t.Fatalf("dry run: %v", err)
			}
			total := d.calls
			for failAt := 1; failAt <= total; failAt++ {
				for trial := 0; trial < 4; trial++ {
					d, tr := setup(int64(failAt*100 + trial))
					d.armed = true
					d.failAt = failAt
					if _, err := tr.BulkReplace(items); !errors.Is(err, errSimCrash) {
						t.Fatalf("failAt=%d: replace returned %v, want simulated crash", failAt, err)
					}
					re, err := Open(d.MemDisk.CloneStable(), v, Options{})
					if err != nil {
						t.Fatalf("failAt=%d: reopen: %v", failAt, err)
					}
					if err := re.RecoverAll(); err != nil {
						t.Fatalf("failAt=%d: RecoverAll: %v", failAt, err)
					}
					// Which generation won? Key 0 decides; every other
					// key must agree — a mixed answer is a torn index.
					got, err := re.Lookup(u32key(0))
					if err != nil {
						t.Fatalf("failAt=%d: lookup key 0: %v", failAt, err)
					}
					gen := oldVal
					if bytes.Equal(got, newVal(0)) {
						gen = newVal
					} else if !bytes.Equal(got, oldVal(0)) {
						t.Fatalf("failAt=%d: key 0 has foreign value %q", failAt, got)
					}
					for i := 0; i < nKeys; i++ {
						got, err := re.Lookup(u32key(i))
						if err != nil || !bytes.Equal(got, gen(i)) {
							t.Fatalf("failAt=%d: torn generations: key %d -> %q, %v", failAt, i, got, err)
						}
					}
					if err := re.Check(CheckStrict); err != nil {
						t.Fatalf("failAt=%d: Check: %v", failAt, err)
					}
				}
			}
		})
	}
}

// BenchmarkBulkLoad1M is the tentpole's cost model: pack one million
// sorted keys through the bottom-up loader.
func BenchmarkBulkLoad1M(b *testing.B) {
	const n = 1_000_000
	items := make([]Item, n)
	value := []byte("v00000000")
	for i := range items {
		items[i] = Item{Key: u32key(i), Value: value}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Open(storage.NewMemDisk(), Shadow, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
	}
}
