package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func shardKey(i int) []byte {
	return []byte(fmt.Sprintf("sk%05d", i))
}

// stageShardCount writes a shard-count file for index name holding n, as a
// build whose indexes could span several hash-routed trees left it beside
// idx_<name>.s0 … idx_<name>.s<n-1>.
func stageShardCount(t *testing.T, store Storage, name string, n int) {
	t.Helper()
	d, err := store.open("idx_" + name + ".shards")
	if err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	buf.Init(page.TypeMeta, 0)
	binary.BigEndian.PutUint32(buf[page.HeaderSize:], shardMetaMagic)
	binary.BigEndian.PutUint32(buf[page.HeaderSize+4:], uint32(n))
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedInsertCommitFetch drives the full transactional path through
// an index: inserts join the transaction's force set, commits make them
// visible, lookups and visible fetches resolve through the one tree, a range
// scan sees every key in key order, and CacheStats names the index's file.
func TestShardedInsertCommitFetch(t *testing.T) {
	const n = 300
	db, err := Open(Memory(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("t_pk", Shadow)
	if err != nil {
		t.Fatal(err)
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

	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil {
			t.Fatalf("FetchVisible(%d): %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}

	var last []byte
	seen := 0
	err = ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d keys, want %d", seen, n)
	}

	if _, ok := db.CacheStats().Partitions["idx_t_pk"]; !ok {
		t.Fatalf("CacheStats missing idx_t_pk: %v", db.CacheStats().Partitions)
	}
}

// TestShardedMetaMismatch: a store whose shard-count file holds a count is
// refused with ErrShardMismatch, on a fresh open and on every retry, and no
// index handle is left behind; an empty count file is no count, and the
// index opens as it would without one.
func TestShardedMetaMismatch(t *testing.T) {
	store := Memory()
	stageShardCount(t, store, "x", 4)
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for range 2 {
		if _, err := db.CreateIndex("x", Shadow); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("count file of 4: %v, want ErrShardMismatch", err)
		}
	}
	if got := db.Indexes(); len(got) != 0 {
		t.Fatalf("Indexes() after the refusal = %v, want none", got)
	}

	if _, err := store.open("idx_y.shards"); err != nil { // empty count file
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("y", Shadow)
	if err != nil {
		t.Fatalf("empty count file: %v", err)
	}
	if err := ix.Tree().Insert([]byte("k"), heap.TID{PageNo: 1}.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestShardMismatchOneVersusMany: the refusal, read from the count file
// alone. One tree over a store a four-tree index left (its count file and
// four shard files) is refused and creates no tree file, so nothing is
// served over the populated store. A count of four staged beside a
// populated one-tree index is refused too, and the refused open leaves the
// tree as it was: without the count file it serves its keys again.
func TestShardMismatchOneVersusMany(t *testing.T) {
	t.Run("one over four", func(t *testing.T) {
		store := Memory()
		for i := range 4 {
			d, err := store.open(fmt.Sprintf("idx_x.s%d", i))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := btree.Open(d, Shadow, btree.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(shardKey(i), heap.TID{PageNo: 1}.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
		stageShardCount(t, store, "x", 4)
		db, err := Open(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.CreateIndex("x", Shadow); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("one tree over four shards: %v, want ErrShardMismatch", err)
		}
		if store.exists("idx_x") {
			t.Fatal("the refused open created idx_x")
		}
	})
	t.Run("four over one", func(t *testing.T) {
		store := Memory()
		db, err := Open(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex("x", Shadow)
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
		stageShardCount(t, store, "x", 4)
		db2, err := Open(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db2.CreateIndex("x", Shadow); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("a count of four over one tree: %v, want ErrShardMismatch", err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		delete(MemoryDisks(store), "idx_x.shards")
		db3, err := Open(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db3.Close()
		ix3, err := db3.CreateIndex("x", Shadow)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix3.LookupTID(shardKey(99)); err != nil {
			t.Fatalf("the tree after the refused open: %v", err)
		}
	})
}

// TestShardedCrashRecoveryParallel is the end-to-end fast-recovery story: a
// crash leaves the index and the heap with half their pending writes,
// restart does no log processing, and one recovery sweep over the tree
// brings every pending repair forward, after which every committed key is
// visible, every in-flight key is not, and the DB is Healthy.
func TestShardedCrashRecoveryParallel(t *testing.T) {
	const committed = 400
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("t")
	ix, err := db.CreateIndex("t_pk", Shadow)
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

	// A second transaction in flight when the machine dies.
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

	db2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, _ := db2.CreateRelation("t")
	ix2, err := db2.CreateIndex("t_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ix2.Tree().RecoverAvailable()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("recovery quarantined %d ranges on clean repairs: %+v", len(rep.Skipped), rep)
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

// TestShardedRebuildFromHeapRespectsRouting: when a leaf is stably
// corrupted beyond repair, the supervisor abandons it and re-seeds its range
// from the heap. Every key comes back, each exactly once — the reseed skips
// the keys the tree still holds — and the tree is strict-clean.
func TestShardedRebuildFromHeapRespectsRouting(t *testing.T) {
	const n = 4000
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix, _ := buildFaultyDB(t, rec, n)
	defer db.Close()
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	fd := FaultDisks(st)[ix.fileName()]
	leaves := liveLeaves(t, fd, 2)
	if len(leaves) < 2 {
		t.Fatal("fewer than two live leaves")
	}
	victim := leaves[1] // a leaf with keys on both sides of its range
	if !fd.CorruptStable(victim, func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", victim)
	}
	ix.Tree().Pool().InvalidateAll()

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
	checkReseeded(t, db, rel, ix, n)
	entries := 0
	if err := ix.Scan(nil, nil, func([]byte, heap.TID) bool { entries++; return true }); err != nil {
		t.Fatal(err)
	}
	if entries != n {
		t.Fatalf("the tree holds %d entries after the reseed, want %d", entries, n)
	}
}

// mergeKey is key i as 8 big-endian bytes, so key order is numeric order.
func mergeKey(i int) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(i))
}

// openMergeIndex opens an index of variant v over fresh memory.
func openMergeIndex(t *testing.T, v Variant) (Storage, *Index) {
	t.Helper()
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ix, err := db.CreateIndex("m", v)
	if err != nil {
		t.Fatal(err)
	}
	return store, ix
}

// insertKey puts key -> tid straight into the index's tree.
func insertKey(t *testing.T, ix *Index, key []byte, tid heap.TID) {
	t.Helper()
	if err := ix.Tree().Insert(key, tid.Bytes()); err != nil {
		t.Fatalf("insert %q: %v", key, err)
	}
}

// TestMergeScanOrdering inserts keys in an order far from key order and
// asserts that Index.Scan yields them in key order, each with its own TID,
// across the many leaves 1000 keys fill.
func TestMergeScanOrdering(t *testing.T) {
	_, ix := openMergeIndex(t, Shadow)
	const total = 1000
	for i := 0; i < total; i++ {
		j := (i * 389) % total // 389 is prime to 1000: a permutation
		insertKey(t, ix, mergeKey(j), heap.TID{PageNo: uint32(j)})
	}
	var got []int
	err := ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		i := int(binary.BigEndian.Uint64(k))
		if tid.PageNo != uint32(i) {
			t.Fatalf("value mismatch for key %x", k)
		}
		got = append(got, i)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("scan yielded %d keys, want %d", len(got), total)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("scan out of order")
	}
	if ix.Tree().SplitCount() == 0 {
		t.Fatal("1000 keys fit one leaf — scenario is vacuous")
	}
}

// TestMergeScanBounds checks half-open [start, end) ranges and the early
// stop (fn returning false).
func TestMergeScanBounds(t *testing.T) {
	_, ix := openMergeIndex(t, Reorg)
	const total = 500
	for i := 0; i < total; i++ {
		insertKey(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	var got []int
	if err := ix.Scan(mergeKey(100), mergeKey(300), func(k []byte, _ heap.TID) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 || got[0] != 100 || got[199] != 299 {
		t.Fatalf("range scan got %d keys [%d..%d], want 200 [100..299]",
			len(got), got[0], got[len(got)-1])
	}
	// Early stop after 10 entries.
	count := 0
	if err := ix.Scan(nil, nil, func([]byte, heap.TID) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d entries, want 10", count)
	}
}

// TestMergeScanPrefixSpansShards uses string keys sharing prefixes: a
// prefix scan must yield exactly the extensions of its prefix, in order,
// and none of a longer or a neighbouring prefix's beyond its end.
func TestMergeScanPrefixSpansShards(t *testing.T) {
	_, ix := openMergeIndex(t, Shadow)
	var want []string
	for _, p := range []string{"app", "apple", "applied", "apply", "apt", "base", "basil"} {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("%s/%04d", p, i)
			insertKey(t, ix, []byte(k), heap.TID{PageNo: 1})
			if len(k) >= 3 && k[:3] == "app" {
				want = append(want, k)
			}
		}
	}
	sort.Strings(want)
	var got []string
	if err := ix.Scan([]byte("app"), []byte("app\xff"), func(k []byte, _ heap.TID) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("prefix scan yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestDegradedShardDoesNotPoisonMerge puts two quarantined leaves in a real
// tree: Index.ScanDegraded must stay ordered and complete for every other
// key, emit none of the quarantined ranges' keys, and report each skipped
// leaf exactly once, scan after scan.
func TestDegradedShardDoesNotPoisonMerge(t *testing.T) {
	const n = 4000
	db, st, _, ix, tids := buildFaultyDB(t, obs.New(obs.DefaultRingCap), n)
	defer db.Close()
	fd := FaultDisks(st)[ix.fileName()]
	leaves := liveLeaves(t, fd, 4)
	if len(leaves) < 4 {
		t.Fatalf("%d live leaves, want 4", len(leaves))
	}
	damaged := map[uint32]bool{uint32(leaves[1]): true, uint32(leaves[3]): true}
	for no := range damaged {
		if !fd.CorruptStable(storage.PageNo(no), func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
			t.Fatalf("no durable image to corrupt at page %d", no)
		}
	}
	ix.Tree().Pool().InvalidateAll()

	for scan := 0; scan < 2; scan++ {
		emitted := make(map[int]bool)
		var last []byte
		rep, err := ix.ScanDegraded(nil, nil, func(k []byte, tid heap.TID) bool {
			if last != nil && bytes.Compare(k, last) <= 0 {
				t.Fatalf("scan %d: degraded scan out of order: %x after %x", scan, k, last)
			}
			last = append(last[:0], k...)
			i := int(binary.BigEndian.Uint32(k))
			if tid != tids[i] {
				t.Fatalf("scan %d: wrong TID for key %d", scan, i)
			}
			emitted[i] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != len(damaged) {
			t.Fatalf("scan %d: %d skipped ranges, want %d: %+v", scan, len(rep.Skipped), len(damaged), rep.Skipped)
		}
		reported := make(map[uint32]bool)
		for _, s := range rep.Skipped {
			if !damaged[s.PageNo] || reported[s.PageNo] {
				t.Fatalf("scan %d: skipped %+v, want each of pages %v once", scan, rep.Skipped, damaged)
			}
			reported[s.PageNo] = true
		}
		inSkipped := func(key []byte) bool {
			for _, s := range rep.Skipped {
				if bytes.Compare(key, s.Lo) >= 0 && (s.Hi == nil || bytes.Compare(key, s.Hi) < 0) {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			if emitted[i] == inSkipped(healthKey(i)) {
				t.Fatalf("scan %d: key %d emitted=%v, in a skipped range=%v", scan, i, emitted[i], !emitted[i])
			}
		}
	}
}

// TestRouterRecoverParallel: a recovery sweep over a tree with one stably
// corrupted leaf reports exactly that leaf, on the first sweep and on the
// next, and leaves it quarantined rather than serving a wrong answer.
func TestRouterRecoverParallel(t *testing.T) {
	db, st, _, ix, _ := buildFaultyDB(t, obs.New(obs.DefaultRingCap), 4000)
	defer db.Close()
	fd := FaultDisks(st)[ix.fileName()]
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.Tree().Pool().InvalidateAll()
	for sweep := 0; sweep < 2; sweep++ {
		rep, err := ix.Tree().RecoverAvailable()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != 1 || rep.Skipped[0].PageNo != uint32(leaves[0]) {
			t.Fatalf("sweep %d: recovery report %+v, want page %d alone", sweep, rep, leaves[0])
		}
	}
	if _, err := ix.LookupTID(healthKey(0)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("LookupTID in the corrupted leaf: %v, want ErrQuarantined", err)
	}
}

// TestRealTreeRecoverThroughRouter runs the recovery sweep over a real tree
// that crashed with half its pending writes: nothing is skipped, and every
// key synced before the crash survives, in order.
func TestRealTreeRecoverThroughRouter(t *testing.T) {
	store, ix := openMergeIndex(t, Shadow)
	const committed = 400
	for i := 0; i < committed; i++ {
		insertKey(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	if err := ix.Tree().Sync(); err != nil {
		t.Fatal(err)
	}
	for i := committed; i < committed+200; i++ {
		insertKey(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	// Crash: dirty pages reach the OS but only half survive.
	if err := ix.Tree().Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			return pending[:len(pending)/2]
		}); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ix2, err := db2.CreateIndex("m", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := ix2.Tree().RecoverAvailable(); err != nil {
		t.Fatal(err)
	} else if len(rep.Skipped) != 0 {
		t.Fatalf("recovery skipped ranges on a MemDisk crash: %+v", rep.Skipped)
	}
	prev := -1
	count := 0
	if err := ix2.Scan(nil, mergeKey(committed), func(k []byte, _ heap.TID) bool {
		i := int(binary.BigEndian.Uint64(k))
		if i <= prev {
			t.Fatalf("post-recovery scan out of order at %d", i)
		}
		prev = i
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != committed {
		t.Fatalf("post-recovery scan found %d committed keys, want %d", count, committed)
	}
}
