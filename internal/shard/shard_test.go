package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/storage"
)

// openShards builds n real B-link trees over fresh MemDisks.
func openShards(t *testing.T, n int, v btree.Variant) ([]*btree.Tree, []*storage.MemDisk) {
	t.Helper()
	trees := make([]*btree.Tree, n)
	disks := make([]*storage.MemDisk, n)
	for i := 0; i < n; i++ {
		d := storage.NewMemDisk()
		tr, err := btree.Open(d, v, btree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees[i], disks[i] = tr, d
	}
	return trees, disks
}

// newRouter builds a router over real trees.
func newRouter(t *testing.T, trees []*btree.Tree) *Router {
	t.Helper()
	legs := make([]Tree, len(trees))
	for i, tr := range trees {
		legs[i] = tr
	}
	r, err := New(legs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// insert puts key -> value into the tree the router routes key to.
func insert(t *testing.T, r *Router, trees []*btree.Tree, key, value []byte) {
	t.Helper()
	if err := trees[r.Pick(key)].Insert(key, value); err != nil {
		t.Fatalf("insert %q: %v", key, err)
	}
}

func key(i int) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, uint64(i))
	return k
}

// TestMergeScanOrdering inserts interleaved keys through the router and
// asserts the merged scan yields the exact global key order — the keys
// land on different shards in hash order, so adjacent output keys almost
// always cross a shard boundary.
func TestMergeScanOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		trees, _ := openShards(t, n, btree.Shadow)
		r := newRouter(t, trees)
		const total = 1000 // >> scanChunk, forcing multiple refills per cursor
		perShard := make(map[int]int)
		for i := 0; i < total; i++ {
			insert(t, r, trees, key(i), key(i))
			perShard[r.Pick(key(i))]++
		}
		if n > 1 {
			// The hash must actually spread the keys: every shard owns some.
			for s := 0; s < n; s++ {
				if perShard[s] == 0 {
					t.Fatalf("n=%d: shard %d owns no keys; hash not spreading", n, s)
				}
			}
		}
		var got []int
		err := r.Scan(nil, nil, func(k, v []byte) bool {
			if !bytes.Equal(k, v) {
				t.Fatalf("value mismatch for key %x", k)
			}
			got = append(got, int(binary.BigEndian.Uint64(k)))
			return true
		})
		if err != nil {
			t.Fatalf("n=%d scan: %v", n, err)
		}
		if len(got) != total {
			t.Fatalf("n=%d: scan yielded %d keys, want %d", n, len(got), total)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("n=%d: merged scan out of order", n)
		}
	}
}

// TestMergeScanBounds checks half-open [start, end) ranges and the early
// stop (fn returning false) across shard boundaries.
func TestMergeScanBounds(t *testing.T) {
	trees, _ := openShards(t, 4, btree.Reorg)
	r := newRouter(t, trees)
	const total = 500
	for i := 0; i < total; i++ {
		insert(t, r, trees, key(i), key(i))
	}
	var got []int
	if err := r.Scan(key(100), key(300), func(k, _ []byte) bool {
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
	if err := r.Scan(nil, nil, func(_, _ []byte) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d entries, want 10", count)
	}
}

// TestMergeScanPrefixSpansShards uses string keys sharing prefixes: every
// extension of a prefix hashes to an arbitrary shard, so a prefix scan is
// the worst case for merge ordering.
func TestMergeScanPrefixSpansShards(t *testing.T) {
	trees, _ := openShards(t, 4, btree.Shadow)
	r := newRouter(t, trees)
	var want []string
	for _, p := range []string{"app", "apple", "applied", "apply", "apt", "base", "basil"} {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("%s/%04d", p, i)
			insert(t, r, trees, []byte(k), []byte("v"))
			if len(k) >= 3 && k[:3] == "app" {
				want = append(want, k)
			}
		}
	}
	sort.Strings(want)
	var got []string
	if err := r.Scan([]byte("app"), []byte("app\xff"), func(k, _ []byte) bool {
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

// stubShard serves a fixed sorted key list, with an optional quarantined
// range it skips and reports — a deterministic degraded shard.
type stubShard struct {
	keys   []string // sorted
	qLo    string   // quarantined [qLo, qHi); empty = healthy
	qHi    string
	qPage  uint32
	visits int // ScanDegraded calls, to verify chunked resume
}

func (s *stubShard) RecoverAvailable() (btree.ScanReport, error) {
	if s.qLo != "" {
		return btree.ScanReport{Skipped: []btree.SkippedRange{
			{PageNo: s.qPage, Lo: []byte(s.qLo), Hi: []byte(s.qHi)},
		}}, nil
	}
	return btree.ScanReport{}, nil
}

func (s *stubShard) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	for _, k := range s.keys {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			return nil
		}
		if !fn([]byte(k), []byte("v")) {
			return nil
		}
	}
	return nil
}

func (s *stubShard) ScanDegraded(start, end []byte, fn func(k, v []byte) bool) (btree.ScanReport, error) {
	s.visits++
	var rep btree.ScanReport
	reported := false
	for _, k := range s.keys {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			return rep, nil
		}
		if s.qLo != "" && k >= s.qLo && k < s.qHi {
			if !reported {
				reported = true
				rep.Skipped = append(rep.Skipped, btree.SkippedRange{
					PageNo: s.qPage, Lo: []byte(s.qLo), Hi: []byte(s.qHi),
				})
			}
			continue
		}
		if !fn([]byte(k), []byte("v")) {
			return rep, nil
		}
	}
	return rep, nil
}

// TestDegradedShardDoesNotPoisonMerge puts a quarantined range in one
// shard: the merged degraded stream must stay ordered and complete for
// every other key, and the merged report must carry the skipped range
// exactly once even though the cursor refills cross it repeatedly.
func TestDegradedShardDoesNotPoisonMerge(t *testing.T) {
	mk := func(lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, fmt.Sprintf("k%06d", i))
		}
		return out
	}
	healthy1 := &stubShard{keys: mk(0, 300)}
	// The degraded shard owns 300..600 and has quarantined 350..500 —
	// wider than a scan chunk, so several refills re-encounter it.
	degraded := &stubShard{keys: mk(300, 600), qLo: "k000350", qHi: "k000500", qPage: 42}
	healthy2 := &stubShard{keys: mk(600, 900)}
	r, err := New([]Tree{healthy1, degraded, healthy2})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	rep, err := r.ScanDegraded(nil, nil, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 900 - (500 - 350)
	if len(got) != want {
		t.Fatalf("degraded merge yielded %d keys, want %d", len(got), want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("degraded merge out of order")
	}
	for _, k := range got {
		if k >= "k000350" && k < "k000500" {
			t.Fatalf("degraded merge emitted quarantined key %q", k)
		}
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("merged report has %d skipped ranges, want 1 (deduplicated): %+v",
			len(rep.Skipped), rep.Skipped)
	}
	s := rep.Skipped[0]
	if s.PageNo != 42 || string(s.Lo) != "k000350" || string(s.Hi) != "k000500" {
		t.Fatalf("merged report carries wrong range: %+v", s)
	}
	if degraded.visits < 2 {
		t.Fatalf("degraded shard refilled %d times; chunked resume not exercised", degraded.visits)
	}
}

// TestRouterRecoverParallel asserts the per-shard recovery fan-out: every
// shard's sweep runs, per-shard timings are recorded, the merged report
// aggregates skips, and the recorder counts one shard.recover per shard
// and sweep.
func TestRouterRecoverParallel(t *testing.T) {
	shards := []Tree{
		&stubShard{keys: []string{"a"}},
		&stubShard{keys: []string{"b"}, qLo: "b", qHi: "c", qPage: 7},
		&stubShard{keys: []string{"c"}},
		&stubShard{keys: []string{"d"}},
	}
	r, _ := New(shards)
	rec := obs.New(64)
	for sweep := 0; sweep < 2; sweep++ {
		st, rep, err := r.Recover(rec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards != 4 || len(st.PerShard) != 4 {
			t.Fatalf("sweep %d: stats %+v", sweep, st)
		}
		if len(rep.Skipped) != 1 || rep.Skipped[0].PageNo != 7 {
			t.Fatalf("sweep %d: merged recovery report %+v", sweep, rep)
		}
	}
	if got := rec.Get(obs.ShardRecover); got != 8 { // 4 shards x 2 sweeps
		t.Fatalf("shard.recover = %d, want 8", got)
	}
}

// TestRealTreeRecoverThroughRouter runs the parallel sweep over real
// trees that crashed with pending writes in every shard.
func TestRealTreeRecoverThroughRouter(t *testing.T) {
	const n = 4
	trees, disks := openShards(t, n, btree.Shadow)
	r := newRouter(t, trees)
	const committed = 400
	for i := 0; i < committed; i++ {
		insert(t, r, trees, key(i), key(i))
	}
	for _, tr := range trees {
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := committed; i < committed+200; i++ {
		insert(t, r, trees, key(i), key(i))
	}
	// Crash every shard: dirty pages reach the OS but only half survive.
	for i, tr := range trees {
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if err := disks[i].CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			return pending[:len(pending)/2]
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen each shard over its crashed disk and heal them in parallel.
	reopened := make([]*btree.Tree, n)
	for i, d := range disks {
		tr, err := btree.Open(d, btree.Shadow, btree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reopened[i] = tr
	}
	r2 := newRouter(t, reopened)
	if _, rep, err := r2.Recover(nil); err != nil {
		t.Fatal(err)
	} else if len(rep.Skipped) != 0 {
		t.Fatalf("recovery skipped ranges on a MemDisk crash: %+v", rep.Skipped)
	}
	// Every committed key survives and the merged order holds.
	prev := -1
	count := 0
	if err := r2.Scan(nil, key(committed), func(k, _ []byte) bool {
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
