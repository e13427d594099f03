package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/btree"
	"repro/internal/heap"
)

// commitRun inserts n tuples (data = key) into rel and returns the
// parallel key/TID slices, without touching the index.
func commitRun(t *testing.T, db *DB, rel *Relation, n int) ([][]byte, []heap.TID) {
	t.Helper()
	tx := db.Begin()
	keys := make([][]byte, n)
	tids := make([]heap.TID, n)
	for i := 0; i < n; i++ {
		keys[i] = healthKey(i)
		tid, err := rel.Insert(tx, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = tid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return keys, tids
}

// BulkLoad: every key resolves, the scan sees them all in order, the tree
// is structurally clean, and a second load is refused.
func TestIndexBulkLoad(t *testing.T) {
	// The subtest keeps the name it had when an index could span several
	// trees.
	t.Run("shards=1", func(t *testing.T) {
		db, err := Open(Memory(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rel, err := db.CreateRelation("acct")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex("acct_pk", Shadow)
		if err != nil {
			t.Fatal(err)
		}
		keys, tids := commitRun(t, db, rel, 5000)
		if err := ix.BulkLoad(keys, tids); err != nil {
			t.Fatalf("BulkLoad: %v", err)
		}
		for i := range keys {
			tid, err := ix.LookupTID(keys[i])
			if err != nil || tid != tids[i] {
				t.Fatalf("key %d: tid %v, %v", i, tid, err)
			}
			data, err := ix.FetchVisible(rel, keys[i])
			if err != nil || !bytes.Equal(data, keys[i]) {
				t.Fatalf("key %d: fetch %q, %v", i, data, err)
			}
		}
		var got int
		var last []byte
		err = ix.Scan(nil, nil, func(k []byte, _ heap.TID) bool {
			if last != nil && bytes.Compare(last, k) >= 0 {
				t.Fatalf("scan out of order: %q then %q", last, k)
			}
			last = append(last[:0], k...)
			got++
			return true
		})
		if err != nil || got != len(keys) {
			t.Fatalf("scan: %d keys, %v", got, err)
		}
		if err := ix.Tree().Check(btree.CheckStrict); err != nil {
			t.Fatalf("Check: %v", err)
		}
		// Loading again must refuse: the index is no longer empty.
		if err := ix.BulkLoad(keys, tids); !errors.Is(err, btree.ErrNotEmpty) {
			t.Fatalf("second BulkLoad: %v, want ErrNotEmpty", err)
		}
	})
}

// Rebuild re-derives the index from one heap scan: dead versions and stray
// entries disappear, visible ones survive, and the swap leaves a
// structurally clean tree.
func TestIndexRebuildFromHeap(t *testing.T) {
	// The subtest keeps the name it had when an index could span several
	// trees.
	t.Run("shards=1", func(t *testing.T) {
		db, err := Open(Memory(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rel, err := db.CreateRelation("acct")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex("acct_pk", Shadow)
		if err != nil {
			t.Fatal(err)
		}
		keys, tids := commitRun(t, db, rel, 3000)
		tx := db.Begin()
		for i := range keys {
			if err := ix.InsertTID(tx, keys[i], tids[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Garbage the rebuild must sweep away.
		for i := 0; i < 50; i++ {
			if err := ix.InsertTID(tx, []byte{0xFF, byte(i)}, tids[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Kill every third tuple; the index still carries its key.
		tx = db.Begin()
		for i := 0; i < len(keys); i += 3 {
			if err := rel.Delete(tx, tids[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		stats, err := ix.Rebuild(rel, func(data []byte) []byte { return data })
		if err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		wantLive := 0
		for i := range keys {
			live := i%3 != 0
			if live {
				wantLive++
			}
			tid, err := ix.LookupTID(keys[i])
			switch {
			case live && (err != nil || tid != tids[i]):
				t.Fatalf("live key %d lost: %v, %v", i, tid, err)
			case !live && !errors.Is(err, btree.ErrKeyNotFound):
				t.Fatalf("dead key %d resurrected: %v, %v", i, tid, err)
			}
		}
		for i := 0; i < 50; i++ {
			if _, err := ix.LookupTID([]byte{0xFF, byte(i)}); !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatalf("garbage key %d survived the rebuild: %v", i, err)
			}
		}
		if stats.Keys != wantLive {
			t.Fatalf("stats.Keys = %d, want %d", stats.Keys, wantLive)
		}
		if stats.Leaves == 0 || stats.Levels == 0 {
			t.Fatalf("implausible stats: %+v", stats)
		}
		if err := ix.Tree().Check(btree.CheckStrict); err != nil {
			t.Fatalf("Check after rebuild: %v", err)
		}
	})
}
