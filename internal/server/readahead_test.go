package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func kvKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// loadedKV returns a store holding n keys of one 100-byte version each,
// loaded in 500-pair MPUTs as the benchmark loads it, and its open DB.
func loadedKV(t *testing.T, n int) (core.Storage, *core.DB) {
	t.Helper()
	store := core.Memory()
	db, srv, _ := openServer(t, store, 0, Options{})
	for from := 0; from < n; from += 500 {
		var keys, vals [][]byte
		for i := from; i < from+500 && i < n; i++ {
			keys = append(keys, kvKey(i))
			vals = append(vals, []byte(fmt.Sprintf("%-100d", i)))
		}
		if err := srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.PutBatch(tx, keys, vals) }); err != nil {
			t.Fatal(err)
		}
	}
	return store, db
}

// cloneStore copies the durable bytes of every file of store: what a machine
// restarted at this instant would read.
func cloneStore(store core.Storage) core.Storage {
	c := core.Memory()
	for name, d := range core.MemoryDisks(store) {
		core.MemoryDisks(c)[name] = d.CloneStable()
	}
	return c
}

// mputPairs returns the 32 pairs of an MPUT over a store of n keys, as the
// benchmark draws them: distinct keys picked at random from the whole key
// space, so that nearly every one is on a leaf and a heap page of its own,
// and new values.
func mputPairs(n int) (keys, vals [][]byte) {
	for i, k := range rand.New(rand.NewSource(1)).Perm(n)[:32] {
		keys = append(keys, kvKey(k))
		vals = append(vals, []byte(fmt.Sprintf("new-%d", i)))
	}
	return keys, vals
}

// singlePuts writes the pairs as one PUT each, every one its own transaction.
func singlePuts(t *testing.T, srv *Server, keys, vals [][]byte) {
	t.Helper()
	for i := range keys {
		if err := srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.Put(tx, keys[i], vals[i]) }); err != nil {
			t.Fatalf("PUT %s: %v", keys[i], err)
		}
	}
}

// sameState fails unless a and b answer a SCAN of every key alike.
func sameState(t *testing.T, a, b *Server, n int) {
	t.Helper()
	ra, err := a.kv.Scan(nil, nil, n+1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.kv.Scan(nil, nil, n+1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(ra, rb, func(x, y Row) bool {
		return string(x.Key) == string(y.Key) && string(x.Value) == string(y.Value)
	}) || len(ra) != n {
		t.Fatalf("SCAN of every key: %d rows after the MPUT, %d after the single PUTs, want %d alike", len(ra), len(rb), n)
	}
}

// ioCounts is what an IOCounter had counted at one instant.
type ioCounts struct{ reads, writes, syncs, waves, peak int64 }

// coldMput runs one MPUT of the pairs on a clone of store whose files count
// into one device, with pools of 64 frames emptied first, and returns the
// clone, the device's counts and the recorder. The device lingers: a read
// that starts alone waits up to 5 ms for another, so that two reads the code
// has out together always meet. Page writes take a millisecond each, so that
// the writes a flush issues together overlap too.
func coldMput(t *testing.T, store core.Storage, keys, vals [][]byte) (core.Storage, ioCounts, *obs.Recorder) {
	t.Helper()
	img := cloneStore(store)
	for _, d := range core.MemoryDisks(img) {
		d.SetLatency(0, time.Millisecond)
	}
	c := &storage.IOCounter{Linger: 5 * time.Millisecond}
	db, srv, rec := openServer(t, core.Counted(img, c), 64, Options{})
	srv.kv.idx.Tree().Pool().InvalidateAll()
	srv.kv.rel.Heap().Pool().InvalidateAll()
	c.Reset()
	if err := srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.PutBatch(tx, keys, vals) }); err != nil {
		t.Fatal(err)
	}
	// Let the reads of hints nobody took over land before counting.
	srv.kv.idx.Tree().Pool().StopHints()
	srv.kv.rel.Heap().Pool().StopHints()
	counted := ioCounts{c.Reads(), c.Writes(), c.Syncs(), c.Waves(), c.Peak()}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return img, counted, rec
}

// TestMputOverlapsReads: a cold MPUT of 32 keys spread over a store several
// times its pools answers and leaves the store as 32 single PUTs do, reads no
// more than the MPUT read one page after another before it resolved its keys
// in windows, and does it in a third of the device waits. Before, it read 57
// pages in 63 waves, every read alone; resolved in windows it reads the same
// 57 in 14 waves in most runs and in 20 at the most seen, under the race
// detector too, so the bound is a third of 63.
func TestMputOverlapsReads(t *testing.T) {
	const n = 20_000
	store, db := loadedKV(t, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	keys, vals := mputPairs(n)

	refDB, ref, _ := openServer(t, cloneStore(store), 64, Options{})
	defer refDB.Close()
	singlePuts(t, ref, keys, vals)

	img, c, rec := coldMput(t, store, keys, vals)
	t.Logf("cold MPUT-32: %d reads, %d writes, %d syncs in %d waves, at most %d in flight; %d hints, %d dropped",
		c.reads, c.writes, c.syncs, c.waves, c.peak, rec.Get(obs.HintIssued), rec.Get(obs.HintDropped))
	db, srv, _ := openServer(t, img, 64, Options{})
	defer db.Close()
	sameState(t, srv, ref, n)

	const serialReads, waveBound = 57, 63 / 3
	if c.reads > serialReads+4 {
		t.Errorf("%d device reads, want at most the %d one page at a time read plus 4", c.reads, serialReads)
	}
	if c.peak < 2 {
		t.Errorf("at most %d reads in flight at once", c.peak)
	}
	if w := rec.Get(obs.HintWasted); w != 0 {
		t.Errorf("%d pages read ahead were evicted unused", w)
	}
	if c.waves > waveBound {
		t.Errorf("%d waves, want at most %d", c.waves, waveBound)
	}
}

// TestPostCrashMputWaves: on an undamaged crash image, where the restart walk
// has proved every leaf linked into the peer chain, a cold MPUT-32 needs no
// §3.5.1 verification: it reads and waits as on a store that never crashed
// (TestMputOverlapsReads's bounds), with no peer repair and no fall back to
// the exclusive lock. Verifying each leaf on first write read 105 pages in 45
// to 48 waves and fell back 25 times, to repair nothing.
func TestPostCrashMputWaves(t *testing.T) {
	const n = 20_000
	store, db := loadedKV(t, n)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, d := range core.MemoryDisks(store) { // the machine dies
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
	}
	keys, vals := mputPairs(n)
	refDB, ref, _ := openServer(t, cloneStore(store), 64, Options{})
	defer refDB.Close()
	singlePuts(t, ref, keys, vals)

	img, c, rec := coldMput(t, store, keys, vals)
	t.Logf("post-crash MPUT-32: %d reads, %d writes, %d syncs in %d waves, at most %d in flight; %d hints, %d dropped",
		c.reads, c.writes, c.syncs, c.waves, c.peak, rec.Get(obs.HintIssued), rec.Get(obs.HintDropped))
	db, srv, _ := openServer(t, img, 64, Options{})
	defer db.Close()
	sameState(t, srv, ref, n)

	const serialReads, waveBound = 57, 63 / 3
	if c.reads > serialReads+4 {
		t.Errorf("%d device reads, want at most %d", c.reads, serialReads+4)
	}
	if c.waves > waveBound {
		t.Errorf("%d waves, want at most %d", c.waves, waveBound)
	}
	if r, f := rec.Get(obs.RepairPeer), rec.Get(obs.ExclusiveFallback); r != 0 || f != 0 {
		t.Errorf("%d peer repairs and %d exclusive fallbacks, want none", r, f)
	}
}

// TestColdGetReadsNewestPageOnly: a cold GET of a key with three versions on
// three heap pages reads one heap page, the newest version's, which is
// visible. Resolving a key by fetching every version, and hinting all but the
// first, read all three.
func TestColdGetReadsNewestPageOnly(t *testing.T) {
	store := core.Memory()
	db, srv, _ := openServer(t, store, 0, Options{})
	put := func(k, v string) {
		t.Helper()
		if err := srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.Put(tx, []byte(k), []byte(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		put("k", fmt.Sprint("v", i))
		for j := 0; j < 5; j++ { // more than a heap page
			put(fmt.Sprintf("pad%d%d", i, j), strings.Repeat("p", 2000))
		}
	}
	pages := make(map[storage.PageNo]bool)
	for _, v := range versionsOf(t, srv, "k") {
		pages[v.PageNo] = true
	}
	if len(pages) != 3 {
		t.Fatalf("k's versions are on pages %v, want three pages", pages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	c := &storage.IOCounter{}
	db, srv, _ = openServer(t, core.Counted(store, c), 0, Options{})
	defer db.Close()
	if _, found, err := srv.kv.Get([]byte("j")); err != nil || found { // reads the leaf k is on
		t.Fatalf("GET j: %v, %v", found, err)
	}
	c.Reset()
	val, found, err := srv.kv.Get([]byte("k"))
	srv.kv.rel.Heap().Pool().StopHints()
	if err != nil || !found || string(val) != "v2" {
		t.Fatalf("GET k: %q, %v, %v; want v2", val, found, err)
	}
	if n := c.Reads(); n != 1 {
		t.Fatalf("cold GET of three versions on three heap pages read %d pages, want 1", n)
	}
}

// TestDurablePutWaves counts durable one-key PUTs at the device: a store of
// 2000 keys behind one counter (core.Counted), every page resident, the flush
// daemon off, every page write a millisecond long and a sync instant. One
// client's PUT is four page writes and three syncs — its heap and index pages
// written together, their syncs, its status page, its sync — as with the
// serial coordinator. That is four waves, or three or five as the instant
// syncs happen to meet the writes or each other, at either coordinator. Two
// clients' commits overlap: one batch forces while the other writes its
// status page. The serial coordinator took 2.73–2.77 waves per commit with
// two clients (six runs); the pipeline takes 2.02–2.27, under -race too. The
// gate sits between the two, well clear of the pipeline's worst run, and
// also asks for a batch that forced while another appended (commit.overlap),
// which the serial coordinator never has.
func TestDurablePutWaves(t *testing.T) {
	const n = 2000
	store, db := loadedKV(t, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range core.MemoryDisks(store) {
		d.SetLatency(0, time.Millisecond)
	}
	c := &storage.IOCounter{}
	db, srv, rec := openServer(t, core.Counted(store, c), 0, Options{})
	defer db.Close()
	if rows, err := srv.kv.Scan(nil, nil, n); err != nil || len(rows) != n {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	put := func(k int) error {
		return srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.Put(tx, kvKey(k), []byte("new")) })
	}
	// The first transaction after the open also writes the XID ceiling: one
	// more page write and its sync, 6 waves and 5 writes at either coordinator.
	if err := put(0); err != nil {
		t.Fatal(err)
	}
	for k := 100; k < 1000; k += 100 {
		c.Reset()
		if err := put(k); err != nil {
			t.Fatal(err)
		}
		if c.Writes() != 4 || c.Syncs() != 3 || c.Waves() > 5 {
			t.Errorf("one client, PUT %s: %d page writes, %d syncs, %d waves; want 4, 3 and at most 5",
				kvKey(k), c.Writes(), c.Syncs(), c.Waves())
		}
	}

	const perClient = 40
	c.Reset()
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if err := put(1000 + 10*i + cl); err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	perCommit := float64(c.Waves()) / (2 * perClient)
	overlaps := rec.Get(obs.CommitOverlap)
	t.Logf("two clients: %.2f waves per commit, at most %d operations in flight, %d overlapping batches", perCommit, c.Peak(), overlaps)
	if perCommit >= 2.6 || c.Peak() < 2 || overlaps == 0 {
		t.Errorf("two clients: %.2f waves per commit, at most %d in flight, %d overlapping batches; want under 2.6, at least 2 and at least 1",
			perCommit, c.Peak(), overlaps)
	}
}

// TestResidentMputStartsNothing: on a store that is all in memory an MPUT of
// 32 keys issues no read, starts no goroutine that outlives it and counts no
// hint.
func TestResidentMputStartsNothing(t *testing.T) {
	const n = 5_000
	store, db := loadedKV(t, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	c := &storage.IOCounter{}
	db, srv, rec := openServer(t, core.Counted(store, c), 0, Options{})
	defer db.Close()
	keys, vals := mputPairs(n)
	mput := func() {
		if err := srv.kv.WithTxn(nil, func(tx *core.Txn) error { return srv.kv.PutBatch(tx, keys, vals) }); err != nil {
			t.Fatal(err)
		}
	}
	// Bring in every heap page and what a first MPUT needs beyond them.
	if rows, err := srv.kv.Scan(nil, nil, n); err != nil || len(rows) != n {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	mput()
	// Join the reads that started: from here on, a hint for a page that is
	// not resident would be counted as dropped.
	srv.kv.rel.Heap().Pool().StopHints()
	srv.kv.idx.Tree().Pool().StopHints()
	issued, dropped := rec.Get(obs.HintIssued), rec.Get(obs.HintDropped)
	c.Reset()
	before := runtime.NumGoroutine()
	mput()
	// The commit's force fan-out and the pool's flush workers wake their
	// Wait from inside wg.Done, so one of them can still be counted for a
	// moment after the MPUT returns; one that is still there after the
	// deadline outlived it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the resident MPUT, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
	if c.Reads() != 0 || rec.Get(obs.HintIssued) != issued || rec.Get(obs.HintDropped) != dropped {
		t.Fatalf("resident MPUT: %d reads, %d hints issued, %d dropped",
			c.Reads(), rec.Get(obs.HintIssued)-issued, rec.Get(obs.HintDropped)-dropped)
	}
}

// TestPostCrashMputMatchesPuts: on a crash image whose 32 target leaves were
// written before the crash, and whose right-peer tokens disagree with their
// neighbours', an MPUT verifies and re-links every one of them (§3.5.1)
// exactly as 32 single PUTs do: the same replies, the same number of peer
// repairs, the same rows, and a tree that passes the strict check. With every
// page read one after another the cold MPUT took 189 waves for 149 reads;
// with its leaves, heap pages and each leaf's two peers hinted it takes 38 to
// 71, and 88 to 92 without the peer hints, so the bound is 80. It reads about
// 165 pages: in pools this small, leaves hinted ahead of the batch are
// evicted unused (hint.wasted) by the neighbours verification reads in
// between.
func TestPostCrashMputMatchesPuts(t *testing.T) {
	const n = 20_000
	store, db := loadedKV(t, n)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, d := range core.MemoryDisks(store) { // the machine dies
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
	}
	// Thirty-two keys on leaves that are pairwise neither the same nor peers,
	// each key between two others on its leaf, so that its new entry lands
	// there whatever its TID: each verification re-links its own leaf's
	// damaged link and no other's, in whatever order the updates come. A
	// key's leaf is the last page a cold lookup of its entry reads.
	c := &storage.IOCounter{}
	probeDB, probe, _ := openServer(t, core.Counted(cloneStore(store), c), 0, Options{})
	leafOf := func(k int) storage.PageNo {
		tid, _, ok, err := probe.kv.lookup(kvKey(k))
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", kvKey(k), ok, err)
		}
		probe.kv.idx.Tree().Pool().InvalidateAll()
		if _, err := probe.kv.idx.LookupTID(core.MakeUnique(kvKey(k), tid)); err != nil {
			t.Fatal(err)
		}
		return c.LastRead()
	}
	idx := core.MemoryDisks(store)["idx_kv_pk"]
	buf := page.New()
	taken := make(map[storage.PageNo]bool) // the targets and their peers
	var keys, vals [][]byte
	for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
		no := leafOf(k)
		if k == 0 || k == n-1 || leafOf(k-1) != no || leafOf(k+1) != no {
			continue
		}
		if err := idx.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		left, right := buf.LeftPeer(), buf.RightPeer()
		if taken[no] || left == 0 || right == 0 {
			continue
		}
		taken[left], taken[no], taken[right] = true, true, true
		buf.SetRightPeerToken(buf.RightPeerToken() + 1)
		if err := idx.WritePage(no, buf); err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, kvKey(k)), append(vals, []byte(fmt.Sprintf("new-%d", k)))
		if len(keys) == 32 {
			break
		}
	}
	if err := probeDB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Sync(); err != nil {
		t.Fatal(err)
	}

	img, mc, mrec := coldMput(t, store, keys, vals)
	t.Logf("post-crash MPUT-32: %d reads, %d writes, %d syncs in %d waves, at most %d in flight; %d hints, %d dropped, %d wasted",
		mc.reads, mc.writes, mc.syncs, mc.waves, mc.peak, mrec.Get(obs.HintIssued), mrec.Get(obs.HintDropped), mrec.Get(obs.HintWasted))
	if mc.waves > 80 {
		t.Errorf("%d waves, want at most 80", mc.waves)
	}
	mdb, msrv, _ := openServer(t, img, 64, Options{})
	defer mdb.Close()
	pdb, psrv, prec := openServer(t, cloneStore(store), 64, Options{})
	defer pdb.Close()
	singlePuts(t, psrv, keys, vals)
	if m, p := mrec.Get(obs.RepairPeer), prec.Get(obs.RepairPeer); m != p || m != uint64(len(keys)) {
		t.Fatalf("peer repairs: %d by the MPUT, %d by the single PUTs, want %d each", m, p, len(keys))
	}
	sameState(t, msrv, psrv, n)
	for _, srv := range []*Server{msrv, psrv} {
		if err := srv.kv.idx.Tree().Check(btree.CheckStrict); err != nil {
			t.Fatal(err)
		}
	}
}
