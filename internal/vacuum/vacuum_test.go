package vacuum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/storage"
)

func key(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

type fakeStatus map[heap.XID]bool

func (f fakeStatus) Committed(x heap.XID) bool { return f[x] }

func (f fakeStatus) Aborted(x heap.XID) bool { return !f[x] }

func TestIndexSweepReclaimsUnreachablePages(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := btree.Open(d, btree.Shadow, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the tree so splits free superseded pages, then drop the
	// volatile freelist as a crash would.
	for i := 0; i < 4000; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	freed := tr.Freelist().Len()
	if freed == 0 {
		t.Fatal("expected freed pages")
	}
	tr.Freelist().Reset(nil) // crash loses the in-memory list

	st, err := Index(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed == 0 {
		t.Fatal("sweep reclaimed nothing")
	}
	if st.ReachablePages == 0 || st.ScannedPages == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The tree is intact afterwards.
	if err := tr.Check(btree.CheckStrict); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i += 97 {
		if _, err := tr.Lookup(key(i)); err != nil {
			t.Fatalf("key %d lost after vacuum: %v", i, err)
		}
	}
}

func TestIndexSweepIdempotent(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := btree.Open(d, btree.Reorg, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Index(tr); err != nil {
		t.Fatal(err)
	}
	st2, err := Index(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reclaimed != 0 {
		t.Fatalf("second sweep reclaimed %d pages", st2.Reclaimed)
	}
}

func TestReclaimedPagesNotReusedForSameRange(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := btree.Open(d, btree.Shadow, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	tr.Freelist().Reset(nil)
	if _, err := Index(tr); err != nil {
		t.Fatal(err)
	}
	// Every reclaimed entry carries a key range (§3.3.3): the allocator
	// must refuse it for an overlapping request.
	for _, e := range tr.Freelist().Entries() {
		if e.Lo == nil && e.Hi == nil {
			continue // whole-space ranges are maximally conservative
		}
		if _, ok := tr.Freelist().Get(e.Lo, e.Hi, nil); ok {
			t.Fatalf("allocator handed out page %d for its own old range", e.PageNo)
		}
		break
	}
}

func TestHeapSweepMarksDeadAndCleansIndex(t *testing.T) {
	relDisk := storage.NewMemDisk()
	rel, err := heap.Open(relDisk, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.Open(storage.NewMemDisk(), btree.Reorg, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status := fakeStatus{1: true, 2: true}

	// 30 live rows from txn 1; half deleted by txn 2; plus 5 rows from
	// txn 9 which never committed.
	var tids []heap.TID
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("row%02d", i))
		tid, err := rel.Insert(1, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(data[:5], tid.Bytes()); err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	for i := 0; i < 30; i += 2 {
		if err := rel.Delete(tids[i], 2, status); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("bad%02d", i))
		tid, err := rel.Insert(9, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(data[:5], tid.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	keyOf := func(data []byte) []byte { return data[:5] }
	st, err := Heap(rel, status, 10, idx, keyOf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dead != 15+5 {
		t.Fatalf("dead = %d, want 20", st.Dead)
	}
	if st.IndexRemoved != 20 {
		t.Fatalf("index removed = %d, want 20", st.IndexRemoved)
	}
	// Dead versions are invisible even to history.
	for i := 0; i < 30; i += 2 {
		if _, err := rel.FetchAsOf(tids[i], status, 1); !errors.Is(err, heap.ErrNoSuchTuple) {
			t.Fatalf("vacuumed tuple %d still fetchable: %v", i, err)
		}
	}
	// Survivors intact.
	for i := 1; i < 30; i += 2 {
		if _, err := rel.Fetch(tids[i], status); err != nil {
			t.Fatalf("live tuple %d lost: %v", i, err)
		}
	}
}

func TestHeapSweepRespectsOldestActive(t *testing.T) {
	rel, err := heap.Open(storage.NewMemDisk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	status := fakeStatus{1: true, 5: true}
	tid, err := rel.Insert(1, []byte("versioned"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(tid, 5, status); err != nil {
		t.Fatal(err)
	}
	// A reader as of XID 3 still needs the version: oldestActive = 3
	// keeps it.
	st, err := Heap(rel, status, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dead != 0 {
		t.Fatal("version needed by a historical reader was vacuumed")
	}
	if _, err := rel.FetchAsOf(tid, status, 3); err != nil {
		t.Fatalf("historical read broken: %v", err)
	}
	// Once no reader needs it, it goes.
	st, err = Heap(rel, status, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dead != 1 {
		t.Fatalf("dead = %d, want 1", st.Dead)
	}
}
