package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/storage"
)

// heldStorage opens the index files of an inner storage behind counting
// disks that hold every read but the meta page's until c.Release is closed.
type heldStorage struct {
	Storage
	c *storage.IOCounter
}

func (s heldStorage) open(name string) (storage.Disk, error) {
	d, err := s.Storage.open(name)
	if err != nil || !strings.HasPrefix(name, "idx_") {
		return d, err
	}
	return storage.NewCountingDisk(d, s.c), nil
}

// loadedStore returns a cleanly closed store holding indexes "pk" and
// "pk2", n keys each.
func loadedStore(t *testing.T, n int) Storage {
	t.Helper()
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, n)
	tids := make([]heap.TID, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%08d", i))
		tids[i] = heap.TID{PageNo: uint32(1 + i/100), Slot: uint16(i % 100)}
	}
	ix, err := db.CreateIndex("pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := db.CreateIndex("pk2", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(keys, tids); err != nil {
		t.Fatal(err)
	}
	if err := ix2.BulkLoad(keys, tids); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCreateIndexReadBudget: reopening an index returns with every read
// below the meta page still held back, after the same number of device
// reads for 1k and 50k keys; lookups are answered once the device is let go,
// with no recovery pass in between.
func TestCreateIndexReadBudget(t *testing.T) {
	var single [2]int64
	for i, n := range []int{1_000, 50_000} {
		c := &storage.IOCounter{Hold: func(no storage.PageNo) bool { return no != 0 }, Release: make(chan struct{})}
		db, err := Open(heldStorage{loadedStore(t, n), c}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		base := c.Reads()
		ix, err := db.CreateIndex("pk", Shadow)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = c.Reads() - base
		close(c.Release)
		last := []byte(fmt.Sprintf("k%08d", n-1))
		if _, err := ix.LookupTID(last); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if single[0] != single[1] || single[0] > 2 {
		t.Fatalf("CreateIndex completed %d reads at 1k keys, %d at 50k; want equal and <= 2", single[0], single[1])
	}
}

// TestCloseJoinsBoundWalks: DB.Close right after the indexes are opened on a
// slow device, two walks in flight, returns cleanly with both joined.
func TestCloseJoinsBoundWalks(t *testing.T) {
	store := loadedStore(t, 20_000)
	for _, d := range MemoryDisks(store) {
		d.SetLatency(100*time.Microsecond, 100*time.Microsecond)
	}
	before := runtime.NumGoroutine()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("pk", Shadow); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("pk2", Shadow); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Open, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestOneShardIndexCostsItsTree: beside the budget of the open, the budget of
// the calls. An index of one tree is that tree: a warm ScanAhead allocates
// what the tree's own ScanAhead allocates and a cold one completes the same
// device reads — no routing hash, merge cursor, entry copy or goroutine in
// between — and InsertTID, like the tree's no-split Insert, allocates nothing.
// Under the race detector the calls run and their allocations go uncounted.
func TestOneShardIndexCostsItsTree(t *testing.T) {
	c := &storage.IOCounter{}
	s := openKV(t, Counted(kvStore(t, 5000), c))
	defer s.db.Close()
	tr := s.ix.Tree()
	lo, hi := kvKey(100), kvKey(140)
	entries := 0
	fn := func([]byte, heap.TID) bool { entries++; return true }
	viaIndex := func() error { return s.ix.ScanAhead(s.rel, lo, hi, 0, fn) }
	viaTree := func() error { return tr.ScanAhead(lo, hi, s.rel.newLookAhead(0), withTID(fn)) }

	coldReads := func(scan func() error) int64 {
		s.cold()
		before := c.Reads()
		if err := scan(); err != nil {
			t.Fatal(err)
		}
		s.cold() // joins the hinted reads still in flight
		return c.Reads() - before
	}
	if ir, tr := coldReads(viaIndex), coldReads(viaTree); ir != tr || entries != 2*40 {
		t.Fatalf("cold ScanAhead: %d device reads through the index, %d through its tree (%d entries)", ir, tr, entries)
	}

	allocs := func(f func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if ia, ta := allocs(viaIndex), allocs(viaTree); ia > ta && !raceEnabled {
		t.Fatalf("warm ScanAhead: %v allocations through the index, %v through its tree", ia, ta)
	}

	tx := s.db.Begin()
	defer tx.Abort()
	keys := make([][]byte, 0, 101)
	for i := range cap(keys) {
		keys = append(keys, []byte(fmt.Sprintf("k%08d+%03d", 200, i)))
	}
	next := 0
	ia := allocs(func() error {
		next++
		return s.ix.InsertTID(tx, keys[next-1], heap.TID{PageNo: 1, Slot: uint16(next)})
	})
	if ia != 0 && !raceEnabled {
		t.Fatalf("InsertTID: %v allocations per call, want 0", ia)
	}
}
