package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/shard"
	"repro/internal/storage"
)

func shardKey(i int) []byte {
	return []byte(fmt.Sprintf("sk%05d", i))
}

// TestShardedInsertCommitFetch drives the full transactional path through a
// 4-shard index: inserts route by hash, commits force only the touched
// shards, lookups and visible fetches resolve through the router, and a
// range scan sees the union keyspace in global key order.
func TestShardedInsertCommitFetch(t *testing.T) {
	const n = 300
	rec := obs.New(64)
	db, err := Open(Memory(), Config{Variant: Shadow, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndexN("t_pk", Shadow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", ix.Shards())
	}

	for i := 0; i < n; i++ {
		tx := db.Begin()
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Every key resolves through the router.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil {
			t.Fatalf("FetchVisible(%d): %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}

	// The hash actually spread the keys: every shard holds at least one.
	for s := 0; s < ix.Shards(); s++ {
		cnt := 0
		if err := ix.Trees()[s].Scan(nil, nil, func(k, v []byte) bool {
			if got := shard.PickN(k, ix.Shards()); got != s {
				t.Fatalf("shard %d holds key %q owned by shard %d", s, k, got)
			}
			cnt++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			t.Fatalf("shard %d is empty — hash did not spread %d keys", s, n)
		}
	}

	// Merged scan: all n keys, in global key order.
	var last []byte
	seen := 0
	err = ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("merged scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("merged scan saw %d keys, want %d", seen, n)
	}
	if rec.Get(obs.ShardScan) == 0 {
		t.Fatal("shard.scan not counted")
	}

	// Stats surfaces: per-shard pools appear in CacheStats and ShardStats.
	cs := db.CacheStats()
	for s := 0; s < 4; s++ {
		name := fmt.Sprintf("idx_t_pk.s%d", s)
		if _, ok := cs.Partitions[name]; !ok {
			t.Fatalf("CacheStats missing %q: %v", name, cs.Partitions)
		}
	}
	if st := ix.ShardStats(); len(st) != 4 {
		t.Fatalf("ShardStats len = %d", len(st))
	}
}

// TestShardedMetaMismatch: the shard count is persisted at create time and
// a reopen with a different count fails typed instead of misrouting keys.
func TestShardedMetaMismatch(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexN("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	// Same handle, wrong count: refused while open.
	if _, err := db.CreateIndexN("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("open-handle mismatch: %v, want ErrShardMismatch", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with the wrong count: refused from the persisted meta.
	db2, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.CreateIndexN("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen mismatch: %v, want ErrShardMismatch", err)
	}
	// The right count still works.
	if _, err := db2.CreateIndexN("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardMismatchOneVersusMany: the two mismatches a count file alone does
// not catch. A one-tree open never reads a count it has no reason to expect,
// and a many-tree open finds no count beside a one-tree index; either way the
// caller would be served a new, empty index over a populated store.
func TestShardMismatchOneVersusMany(t *testing.T) {
	for _, tc := range []struct {
		name              string
		created, reopened int
	}{
		{"one over four", 4, 1},
		{"four over one", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := Memory()
			db, err := Open(store, Config{Variant: Shadow})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := db.CreateIndexN("x", Shadow, tc.created)
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for i := 0; i < 100; i++ {
				if err := ix.InsertTID(tx, shardKey(i), heap.TID{PageNo: 1, Slot: uint16(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(store, Config{Variant: Shadow})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if _, err := db2.CreateIndexN("x", Shadow, tc.reopened); !errors.Is(err, ErrShardMismatch) {
				t.Fatalf("%d shards reopened with %d: %v, want ErrShardMismatch", tc.created, tc.reopened, err)
			}
			ix2, err := db2.CreateIndexN("x", Shadow, tc.created)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix2.LookupTID(shardKey(99)); err != nil {
				t.Fatalf("right count after the refused open: %v", err)
			}
		})
	}
}

// TestShardedCrashRecoveryParallel is the end-to-end fast-recovery story at
// shard scale: a crash leaves dirty state in every shard, restart does no
// log processing, and one parallel Recover sweep heals all shards
// concurrently — attested by per-shard timings and shard.recover counters —
// after which every committed key is visible and every in-flight key is not.
func TestShardedCrashRecoveryParallel(t *testing.T) {
	const nShards = 4
	const committed = 400
	store := Memory()
	db, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("t")
	ix, err := db.CreateIndexN("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	for i := 0; i < committed; i++ {
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
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

	// A second transaction in flight when the machine dies: its inserts
	// have dirtied pages in every shard.
	tx2 := db.Begin()
	for i := committed; i < committed+200; i++ {
		tid, err := rel.Insert(tx2, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx2, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-sync: flush to the OS cache, keep every other pending page.
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var out []storage.PageNo
			for i, no := range pending {
				if i%2 == 0 {
					out = append(out, no)
				}
			}
			return out
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: reopen and run ONE parallel recovery sweep over all shards.
	rec := obs.New(obs.DefaultRingCap)
	db2, err := Open(store, Config{Variant: Shadow, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, _ := db2.CreateRelation("t")
	ix2, err := db2.CreateIndexN("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}
	st, rep, err := ix2.Recover()
	if err != nil {
		t.Fatalf("parallel recover: %v", err)
	}
	if st.Shards != nShards || len(st.PerShard) != nShards {
		t.Fatalf("recovery stats: %+v", st)
	}
	for i, d := range st.PerShard {
		if d <= 0 {
			t.Fatalf("shard %d reported no recovery time", i)
		}
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("recovery quarantined %d ranges on clean repairs: %+v", len(rep.Skipped), rep)
	}
	if got := rec.Get(obs.ShardRecover); got != nShards {
		t.Fatalf("shard.recover = %d, want %d (one per shard)", got, nShards)
	}

	for i := 0; i < committed; i++ {
		data, err := ix2.FetchVisible(rel2, shardKey(i))
		if err != nil {
			t.Fatalf("committed key %d lost: %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}
	for i := committed; i < committed+200; i++ {
		_, err := ix2.FetchVisible(rel2, shardKey(i))
		if err == nil {
			t.Fatalf("uncommitted key %d visible after crash", i)
		}
		if !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("uncommitted key %d: unexpected error %v", i, err)
		}
	}
	if got := db2.Health(); got != Healthy {
		t.Fatalf("health after recovery = %v, want Healthy", got)
	}
}

// TestShardedRebuildFromHeapRespectsRouting: when one shard's leaf is
// stably corrupted beyond repair, the supervisor abandons it and re-seeds
// from the heap — inserting ONLY keys the router hashes to that shard, so
// the rebuild never plants a key where lookups would miss it.
func TestShardedRebuildFromHeapRespectsRouting(t *testing.T) {
	const n = 4000
	const nShards = 4
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix, _ := buildFaultyDB(t, rec, n, nShards)
	defer db.Close()
	db.cfg.Supervisor.RebuildAfter = 1
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	const victim = 1
	fd := FaultDisks(st)[fmt.Sprintf("idx_acct_pk.s%d", victim)]
	if fd == nil {
		t.Fatal("no fault disk for the victim shard")
	}
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.Trees()[victim].Pool().InvalidateAll()

	// First touch quarantines the subtree.
	rep, err := ix.ScanDegraded(nil, nil, func([]byte, heap.TID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("stable corruption did not quarantine anything — scenario is vacuous")
	}

	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if rec.Get(obs.RepairRebuild) == 0 {
		t.Fatal("repair.rebuild not counted")
	}

	// Every key is back, and the rebuilt shard holds only its own keys.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, healthKey(i))
		if err != nil || !bytes.Equal(data, healthKey(i)) {
			t.Fatalf("key %d after rebuild: %q, %v", i, data, err)
		}
	}
	if err := ix.Trees()[victim].Scan(nil, nil, func(k, v []byte) bool {
		if got := shard.PickN(k, nShards); got != victim {
			t.Fatalf("rebuild planted key %q (shard %d) into shard %d", k, got, victim)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}
