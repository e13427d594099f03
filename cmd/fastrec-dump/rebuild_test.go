package main

import (
	"bytes"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/heap"
)

// TestRebuildDir: populate a directory-backed DB, let the index drift from
// the heap (deleted tuples still indexed, garbage keys planted), and check
// the rebuild subcommand's core path restores exactly the visible keys.
func TestRebuildDir(t *testing.T) {
	dir := t.TempDir()
	const n = 800
	db, err := core.Open(core.Dir(dir), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("acct_pk", core.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tids := make([]heap.TID, n)
	for i := 0; i < n; i++ {
		tid, err := rel.Insert(tx, u32(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, u32(i), tid); err != nil {
			t.Fatal(err)
		}
		tids[i] = tid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Drift: kill every fourth tuple; its key stays behind in the index.
	tx = db.Begin()
	for i := 0; i < n; i += 4 {
		if err := rel.Delete(tx, tids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := rebuildDir(dir, "acct", "acct_pk", btree.Shadow, 0, 0)
	if err != nil {
		t.Fatalf("rebuildDir: %v", err)
	}
	want := n - (n+3)/4
	if stats.Keys != want || stats.Shards != 1 || stats.Leaves == 0 {
		t.Fatalf("stats = %+v, want %d keys", stats, want)
	}

	// Reopen and confirm: live keys fetch their tuples, dead keys are gone.
	db2, err := core.Open(core.Dir(dir), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, err := db2.CreateRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := db2.CreateIndex("acct_pk", core.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data, err := ix2.FetchVisible(rel2, u32(i))
		if i%4 == 0 {
			if err == nil {
				t.Fatalf("dead key %d still indexed after rebuild", i)
			}
			continue
		}
		if err != nil || !bytes.Equal(data, u32(i)) {
			t.Fatalf("live key %d after rebuild: %q, %v", i, data, err)
		}
	}
	if err := ix2.Tree().Check(btree.CheckStrict); err != nil {
		t.Fatalf("Check: %v", err)
	}
}
