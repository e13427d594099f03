package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
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

// TestFlushAllCoversEveryShard: a checkpoint writes back every open index
// and relation, and Indexes lists the indexes by name. An open transaction
// dirties two indexes and a relation; after FlushAll no pool holds a dirty
// page and no file has a buffered write.
func TestFlushAllCoversEveryShard(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateIndex("b", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateIndex("a", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Indexes(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Indexes() = %v, want [a b]", got)
	}
	tx := db.Begin()
	defer tx.Abort()
	for i := 0; i < 400; i++ {
		tid, err := rel.Insert(tx, shardKey(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{a, b} {
			if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every file's dirty pages went to it and were synced there; a pool
	// asked to flush again has nothing left to write.
	for file, pool := range map[string]*buffer.Pool{
		a.fileName(): a.Tree().Pool(), b.fileName(): b.Tree().Pool(), "rel_t": rel.Heap().Pool(),
	} {
		d := MemoryDisks(store)[file]
		flushed, _, _ := d.Stats()
		if flushed < 2 { // the meta page's open-time write, then the data
			t.Fatalf("%s: %d page writes after FlushAll — nothing was written back", file, flushed)
		}
		if pending := d.PendingPages(); len(pending) != 0 {
			t.Fatalf("%s: pages still buffered after FlushAll: %v", file, pending)
		}
		if err := pool.FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if again, _, _ := d.Stats(); again != flushed {
			t.Fatalf("%s: pool still held %d dirty pages after FlushAll", file, again-flushed)
		}
	}
}

// TestOneDaemon: a DB with FlushEvery > 0 starts exactly one goroutine of
// its own, which checkpoints and sweeps, and Close joins it; with FlushEvery
// zero it starts none. The sweep heals a quarantined index leaf and a
// quarantined heap page, both with intact durable images, and starts no
// goroutine to do it.
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
		store := Memory()
		db, err := Open(store, Config{FlushEvery: every, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("t")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex("t_pk", Shadow)
		if err != nil {
			t.Fatal(err)
		}
		_ = ix.Tree().AwaitBound()
		want := 0
		if every > 0 {
			want = 1
			// Enough keys for a tree of several leaves, committed: every
			// page the sweep is to heal has an intact durable image.
			tx := db.Begin()
			for i := 0; i < 1000; i++ {
				tid, err := rel.Insert(tx, shardKey(i))
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if h, err := ix.Tree().Height(); err != nil || h < 2 {
				t.Fatalf("tree height %d, %v: the root is the only leaf", h, err)
			}
			leaves := liveLeaves(t, MemoryDisks(store)[ix.fileName()], 1)
			iq, hq := ix.Tree().Pool().Quarantine(), rel.Heap().Pool().Quarantine()
			// The leftmost leaf: the sweep's heal descends to it from the
			// empty low key its ticket records.
			ix.Tree().Pool().QuarantinePage(leaves[0], "test: spurious quarantine", false)
			rel.Heap().Pool().QuarantinePage(1, "test: spurious quarantine", false)
			repairs := rec.Get(obs.SupervisorRepair)
			deadline := time.Now().Add(5 * time.Second)
			for iq.Len() > 0 || hq.Len() > 0 || db.Health() != Healthy || rec.Get(obs.FlushDaemon) == 0 {
				if n := ours() - before; n > want {
					t.Fatalf("FlushEvery %v: %d core goroutines while the daemon sweeps, want %d", every, n, want)
				}
				if time.Now().After(deadline) {
					t.Fatalf("the daemon neither checkpointed nor swept: %+v", db.HealthReport())
				}
				time.Sleep(time.Millisecond)
			}
			if got := rec.Get(obs.SupervisorRepair) - repairs; got < 2 {
				t.Fatalf("supervisor.repair grew by %d, want 2: the index leaf and the heap page", got)
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
