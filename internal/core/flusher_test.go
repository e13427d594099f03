package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
)

// TestFlushDaemonWritesColdDirt: pages dirtied by an in-flight transaction
// are written back by the daemon without any commit, so the eventual
// commit-time force finds them clean. The daemon must never touch the
// status table: the uncommitted tuples stay invisible throughout.
func TestFlushDaemonWritesColdDirt(t *testing.T) {
	store := Memory()
	rec := obs.New(64)
	db, err := Open(store, Config{FlushEvery: time.Millisecond, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	tid, err := rel.Insert(tx, []byte("cold"))
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least two daemon passes.
	deadline := time.Now().Add(2 * time.Second)
	for rec.Get(obs.FlushDaemon) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("flush daemon never ran")
		}
		time.Sleep(time.Millisecond)
	}

	// The dirty heap page reached the disk's stable store...
	d := MemoryDisks(store)["rel_t"]
	if len(d.PendingPages()) != 0 {
		t.Fatalf("heap pages still buffered after daemon flush: %v", d.PendingPages())
	}
	// ...but the tuple is still invisible: the daemon checkpoints data,
	// never commit status.
	if _, err := rel.Fetch(tid); err == nil {
		t.Fatal("uncommitted tuple visible after background flush")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Fetch(tid); err != nil {
		t.Fatalf("tuple invisible after commit: %v", err)
	}
}

// TestFlushAllCoversEveryShard: a checkpoint writes back every tree of every
// index, not only the one-tree ones, and Indexes lists them all. An open
// transaction dirties all four shards; after FlushAll no pool holds a dirty
// page and no index file has a buffered write.
func TestFlushAllCoversEveryShard(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateIndex("one", Shadow); err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndexN("four", Shadow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Indexes(); len(got) != 2 || got[0] != ix || got[1].Name() != "one" {
		t.Fatalf("Indexes() = %v, want [four one]", got)
	}
	tx := db.Begin()
	defer tx.Abort()
	for i := 0; i < 400; i++ {
		if err := ix.InsertTID(tx, shardKey(i), heap.TID{PageNo: 1, Slot: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every shard's dirty pages went to its file and were synced there; a
	// pool asked to flush again has nothing left to write.
	for i, tr := range ix.Trees() {
		d := MemoryDisks(store)[ix.fileName(i)]
		flushed, _, _ := d.Stats()
		if flushed < 2 { // the meta page's open-time write, then the leaf
			t.Fatalf("shard %d: %d page writes after FlushAll — nothing was written back", i, flushed)
		}
		if pending := d.PendingPages(); len(pending) != 0 {
			t.Fatalf("shard %d: pages still buffered after FlushAll: %v", i, pending)
		}
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if again, _, _ := d.Stats(); again != flushed {
			t.Fatalf("shard %d: pool still held %d dirty pages after FlushAll", i, again-flushed)
		}
	}
}

// TestOneDaemon: a DB with FlushEvery > 0 starts exactly one goroutine of
// its own, which checkpoints and sweeps, and Close joins it; with FlushEvery
// zero it starts none.
func TestOneDaemon(t *testing.T) {
	// ours counts the live goroutines that package core started.
	ours := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return strings.Count(string(buf), "created by repro/internal/core.")
	}
	for _, every := range []time.Duration{0, time.Millisecond} {
		before := ours() // a DB another test left open for a crash keeps its daemon
		rec := obs.New(64)
		db, err := Open(Memory(), Config{FlushEvery: every, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("t")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndexN("t_pk", Shadow, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ix.Trees() {
			_ = tr.AwaitBound()
		}
		want := 0
		if every > 0 {
			want = 1
			// A quarantined heap page with an intact durable image: the
			// one goroutine's sweep must release it.
			tx := db.Begin()
			if _, err := rel.Insert(tx, []byte("row")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rel.Heap().Pool().QuarantinePage(1, "test: spurious quarantine", false)
			deadline := time.Now().Add(5 * time.Second)
			for db.Health() != Healthy || rec.Get(obs.FlushDaemon) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("the daemon neither checkpointed nor swept: %+v", db.HealthReport())
				}
				time.Sleep(time.Millisecond)
			}
		}
		if n := ours() - before; n != want {
			t.Fatalf("FlushEvery %v: %d core goroutines, want %d", every, n, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ours() - before; n != 0 {
			t.Fatalf("FlushEvery %v: %d core goroutines left after Close", every, n)
		}
	}
}
