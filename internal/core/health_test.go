package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func healthKey(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

// buildFaultyDB opens a DB on fault-injectable memory storage and commits n
// keys through a relation + shadow index pair (tuple data = index key).
func buildFaultyDB(t *testing.T, rec *obs.Recorder, n int) (*DB, Storage, *Relation, *Index, []heap.TID) {
	t.Helper()
	return buildFaultyDBWith(t, Config{Obs: rec}, n)
}

// testMaxBackoff caps the quarantine backoff of buildFaultyDB's pools, so
// that every quarantined page is due again after 2*testMaxBackoff.
const testMaxBackoff = 20 * time.Millisecond

// buildFaultyDBWith is buildFaultyDB with cfg's pool sizes and recorder.
// Every pool's quarantine backs off at most testMaxBackoff and gives up
// after 50 attempts.
func buildFaultyDBWith(t *testing.T, cfg Config, n int) (*DB, Storage, *Relation, *Index, []heap.TID) {
	t.Helper()
	st := FaultyMemory(storage.FaultConfig{})
	db, err := Open(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("acct_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range db.pools() {
		q := np.pool.Quarantine()
		q.MaxBackoff, q.GiveUpAfter = testMaxBackoff, 50
	}
	tx := db.Begin()
	tids := make([]heap.TID, n)
	for i := 0; i < n; i++ {
		tid, err := rel.Insert(tx, healthKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, healthKey(i), tid); err != nil {
			t.Fatal(err)
		}
		tids[i] = tid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, st, rel, ix, tids
}

// liveLeaves walks the index file's durable image from the root named by
// the meta page and returns up to max reachable leaf page numbers. In a
// fully synced shadow tree every internal item carries prev == 0, so
// damaging a live leaf is immediately unrecoverable from the index alone —
// the first descent must quarantine it.
func liveLeaves(t *testing.T, d storage.Disk, max int) []storage.PageNo {
	t.Helper()
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	root := storage.PageNo(binary.LittleEndian.Uint32(buf[page.HeaderSize+4:]))
	queue := []storage.PageNo{root}
	seen := map[storage.PageNo]bool{root: true}
	var leaves []storage.PageNo
	for len(queue) > 0 && len(leaves) < max {
		no := queue[0]
		queue = queue[1:]
		if err := d.ReadPage(no, buf); err != nil || !buf.Valid() {
			t.Fatalf("live page %d unreadable during the root walk", no)
		}
		switch buf.Type() {
		case page.TypeLeaf:
			leaves = append(leaves, no)
		case page.TypeInternal:
			for i := 0; i < buf.NKeys(); i++ {
				item := buf.Item(i)
				k := int(item[0]) | int(item[1])<<8 // item layout: klen, sep, child, prev
				child := storage.PageNo(binary.LittleEndian.Uint32(item[2+k:]))
				if child != 0 && !seen[child] {
					seen[child] = true
					queue = append(queue, child)
				}
			}
		}
	}
	return leaves
}

// TestHealthDegradedServesAndSupervisorHeals is the acceptance scenario:
// unrecoverable sector pairs in the index drive the DB Healthy -> Degraded;
// every non-quarantined key keeps being served correctly (scans
// skip-and-report in key order, point reads fail typed); the health report
// names the damaged file; the supervisor's repair attempts fail while the
// faults persist and return the DB to Healthy once they clear — all of it
// attested by counters.
func TestHealthDegradedServesAndSupervisorHeals(t *testing.T) {
	// The subtest keeps the name it had when an index could span several
	// trees.
	t.Run("shards=1", testDegradedServesAndHeals)
}

func testDegradedServesAndHeals(t *testing.T) {
	const n = 1500
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix, tids := buildFaultyDB(t, rec, n)
	defer db.Close()

	if got := db.Health(); got != Healthy {
		t.Fatalf("fresh DB health = %v, want Healthy", got)
	}

	fd := FaultDisks(st)[ix.fileName()]
	if fd == nil {
		t.Fatal("no fault disk for the index")
	}
	hits := liveLeaves(t, fd, 2)
	if len(hits) == 0 {
		t.Fatal("the index has no live leaves — scenario is vacuous")
	}
	for _, no := range hits {
		fd.AddPermanentBadSector(no)
	}
	ix.Tree().Pool().InvalidateAll()

	// Degraded scan: every emitted key must be correct and in order, every
	// committed key accounted for as served or reported-skipped.
	emitted := make(map[int]bool)
	var last []byte
	rep, err := ix.ScanDegraded(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("degraded scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		i := int(binary.BigEndian.Uint32(k))
		if tid != tids[i] {
			t.Fatalf("degraded scan returned wrong TID for key %d", i)
		}
		emitted[i] = true
		return true
	})
	if err != nil {
		t.Fatalf("ScanDegraded: %v", err)
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("skipped no range over damaged leaves")
	}
	inSkipped := func(key []byte) bool {
		for _, s := range rep.Skipped {
			if bytes.Compare(key, s.Lo) >= 0 && (s.Hi == nil || bytes.Compare(key, s.Hi) < 0) {
				return true
			}
		}
		return false
	}
	skipped := 0
	for i := 0; i < n; i++ {
		switch {
		case emitted[i]:
			data, err := rel.Fetch(tids[i])
			if err != nil || !bytes.Equal(data, healthKey(i)) {
				t.Fatalf("served key %d fetches wrong: %q, %v", i, data, err)
			}
		case inSkipped(healthKey(i)):
			skipped++
		default:
			t.Fatalf("key %d neither served nor reported skipped", i)
		}
	}
	if skipped == 0 {
		t.Fatal("no committed key in the quarantined ranges — scenario is vacuous")
	}

	// Health machine (a report entry for the damaged file) + typed point reads.
	if got := db.Health(); got != Degraded {
		t.Fatalf("health with quarantined leaves = %v, want Degraded", got)
	}
	if rec.Get(obs.QuarantinePage) == 0 || rec.Get(obs.HealthTransition) == 0 {
		t.Fatal("quarantine/health counters not bumped")
	}
	files := make(map[string]bool)
	for _, e := range db.HealthReport().Quarantined {
		files[e.File] = true
	}
	if !files[ix.fileName()] {
		t.Fatalf("HealthReport missing %s: %+v", ix.fileName(), db.HealthReport())
	}
	for i := 0; i < n; i++ {
		if !emitted[i] {
			if _, err := ix.LookupTID(healthKey(i)); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("LookupTID(%d) in quarantined range: %v, want ErrQuarantined", i, err)
			}
			break
		}
	}

	// Supervisor with the faults still present: attempts fail, DB stays
	// Degraded.
	db.SuperviseOnce()
	if rec.Get(obs.SupervisorFail) == 0 {
		t.Fatal("supervisor.fail not counted while faults persist")
	}
	if got := db.Health(); got != Degraded {
		t.Fatalf("health after failed supervision = %v, want Degraded", got)
	}

	// Faults clear; the supervisor heals the tree and promotes the DB.
	for _, no := range hits {
		if !fd.ClearBadSector(no) {
			t.Fatalf("bad sector %d was not registered", no)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("DB never returned to Healthy; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond) // let the per-page backoff pass
		db.SuperviseOnce()
	}
	if rec.Get(obs.SupervisorRepair) == 0 {
		t.Fatal("supervisor.repair not counted")
	}
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, healthKey(i))
		if err != nil || !bytes.Equal(data, healthKey(i)) {
			t.Fatalf("key %d after heal: %q, %v", i, data, err)
		}
	}
}

// TestHealthReadOnlyAndFailed: a critical (meta/root) quarantine withdraws
// write service; an exhausted critical repair budget fails the DB.
func TestHealthReadOnlyAndFailed(t *testing.T) {
	rec := obs.New(64)
	db, _, rel, ix, tids := buildFaultyDB(t, rec, 50)
	defer db.Close()

	p := ix.Tree().Pool()
	p.QuarantinePage(0, "test: meta damage", true)
	if got := db.Health(); got != ReadOnly {
		t.Fatalf("health with critical quarantine = %v, want ReadOnly", got)
	}
	tx := db.Begin()
	if _, err := rel.Insert(tx, []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert while ReadOnly: %v, want ErrReadOnly", err)
	}
	if err := ix.InsertTID(tx, []byte("x"), tids[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertTID while ReadOnly: %v, want ErrReadOnly", err)
	}
	// Reads continue (the heap and the rest of the index are intact).
	if _, err := rel.Fetch(tids[0]); err != nil {
		t.Fatalf("Fetch while ReadOnly: %v", err)
	}
	_ = tx.Abort()

	// Burn the critical page's repair budget: the DB fails closed.
	q := p.Quarantine()
	q.GiveUpAfter = 1
	q.MarkAttempt(0)
	if got := db.Health(); got != Failed {
		t.Fatalf("health after critical give-up = %v, want Failed", got)
	}
	if _, err := rel.Fetch(tids[0]); !errors.Is(err, ErrFailed) {
		t.Fatalf("Fetch while Failed: %v, want ErrFailed", err)
	}
	if _, err := ix.LookupTID(healthKey(0)); !errors.Is(err, ErrFailed) {
		t.Fatalf("LookupTID while Failed: %v, want ErrFailed", err)
	}

	// Releasing the quarantine restores full service.
	p.ReleaseQuarantine(0)
	if got := db.Health(); got != Healthy {
		t.Fatalf("health after release = %v, want Healthy", got)
	}
	if _, err := rel.Fetch(tids[0]); err != nil {
		t.Fatalf("Fetch after release: %v", err)
	}
	rep := db.HealthReport()
	if rep.State != "healthy" || len(rep.Quarantined) != 0 {
		t.Fatalf("health report after release: %+v", rep)
	}
}

// TestHealthFetchQuarantinedHeapPage: a tuple on a heap page the pool will
// not serve fails with ErrQuarantined, not ErrNoSuchTuple, so that no reader
// takes it for a dead version; released, the page serves it again.
func TestHealthFetchQuarantinedHeapPage(t *testing.T) {
	db, _, rel, _, tids := buildFaultyDB(t, obs.New(64), 10)
	defer db.Close()
	p := rel.Heap().Pool()
	p.QuarantinePage(tids[0].PageNo, "test: unreadable heap page", false)
	if _, err := rel.Fetch(tids[0]); !errors.Is(err, ErrQuarantined) || errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("Fetch on a quarantined heap page: %v, want ErrQuarantined and not ErrNoSuchTuple", err)
	}
	p.ReleaseQuarantine(tids[0].PageNo)
	if data, err := rel.Fetch(tids[0]); err != nil || !bytes.Equal(data, healthKey(0)) {
		t.Fatalf("Fetch after release: %q, %v", data, err)
	}
}

// TestSupervisorGoroutineHealsHeapPage: the daemon's sweep after each
// checkpoint (not a manual SuperviseOnce) re-probes a quarantined heap page
// whose durable image is intact and releases it, promoting the DB back to
// Healthy.
func TestSupervisorGoroutineHealsHeapPage(t *testing.T) {
	rec := obs.New(64)
	st := FaultyMemory(storage.FaultConfig{})
	db, err := Open(st, Config{Obs: rec, FlushEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := rel.Insert(tx, []byte("row")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Quarantine a heap page whose durable image is fine: the supervisor's
	// probe must notice and release it.
	rel.Heap().Pool().QuarantinePage(1, "test: spurious quarantine", false)
	if got := db.Health(); got != Degraded {
		t.Fatalf("health = %v, want Degraded", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never healed the heap page; report: %+v", db.HealthReport())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec.Get(obs.SupervisorRepair) == 0 {
		t.Fatal("supervisor.repair not counted")
	}
}

// damageLeaves corrupts the durable image of k live leaves of ix, drops the
// tree's cached pages, and quarantines the leaves with a degraded scan. It
// returns how many pages the scan skipped.
func damageLeaves(t *testing.T, st Storage, ix *Index, k int) int {
	t.Helper()
	fd := FaultDisks(st)[ix.fileName()]
	leaves := liveLeaves(t, fd, k)
	if len(leaves) < k {
		t.Fatalf("the tree has %d live leaves, want %d", len(leaves), k)
	}
	for _, no := range leaves {
		if !fd.CorruptStable(no, func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
			t.Fatalf("no durable image to corrupt at page %d", no)
		}
	}
	ix.Tree().Pool().InvalidateAll()
	rep, err := ix.ScanDegraded(nil, nil, func([]byte, heap.TID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("stable corruption did not quarantine anything — scenario is vacuous")
	}
	return len(rep.Skipped)
}

// checkReseeded asserts that the DB is Healthy, that each of the n keys
// resolves to its tuple, and that the tree passes the strict check.
func checkReseeded(t *testing.T, db *DB, rel *Relation, ix *Index, n int) {
	t.Helper()
	if got := db.Health(); got != Healthy {
		t.Fatalf("health = %v, want Healthy; report: %+v", got, db.HealthReport())
	}
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, healthKey(i))
		if err != nil || !bytes.Equal(data, healthKey(i)) {
			t.Fatalf("key %d after reseed: %q, %v", i, data, err)
		}
	}
	if err := ix.Tree().Check(btree.CheckStrict); err != nil {
		t.Fatalf("Check(CheckStrict) after reseed: %v", err)
	}
}

// TestSupervisorRebuildsFromHeap: when the index's durable source is truly
// gone (stable corruption of several leaves), the supervisor abandons the
// pages after rebuildAfter failed heals and re-seeds their key ranges from
// the heap relation — the authoritative copy. Every key comes back, and the
// tree is strict-clean.
func TestSupervisorRebuildsFromHeap(t *testing.T) {
	// The subtest keeps the name it had when an index could span several
	// trees.
	t.Run("shards=1", func(t *testing.T) {
		const n = 1500
		rec := obs.New(obs.DefaultRingCap)
		db, st, rel, ix, _ := buildFaultyDB(t, rec, n)
		defer db.Close()
		db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

		damageLeaves(t, st, ix, 3)
		if got := db.Health(); got != Degraded {
			t.Fatalf("health = %v, want Degraded", got)
		}
		// Attempt 1 fails (corruption persists); the next sweep crosses
		// rebuildAfter and rebuilds from the heap.
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
	})
}

// TestSupervisorWholesaleRebuild: damage to a large share of a tree — a
// third of its leaves, the case the bottom-up wholesale escalation once
// served — heals through the same per-range reseed as a single lost leaf.
// Every key comes back, the tree is strict-clean, and no bulk rebuild runs.
func TestSupervisorWholesaleRebuild(t *testing.T) {
	const n = 6000
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix, _ := buildFaultyDB(t, rec, n)
	defer db.Close()
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	all := liveLeaves(t, FaultDisks(st)[ix.fileName()], 1<<20)
	third := len(all) / 3
	if third < 5 {
		t.Fatalf("tree has %d live leaves — too few for a third to be heavy damage", len(all))
	}
	if k := damageLeaves(t, st, ix, third); k != third {
		t.Fatalf("degraded scan skipped %d pages, want %d", k, third)
	}

	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("reseed never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if rec.Get(obs.RepairRebuild) == 0 {
		t.Fatal("repair.rebuild not counted")
	}
	if got := rec.Get(obs.RebuildRun); got != 0 {
		t.Fatalf("rebuild.run = %d, want 0: the supervisor has no bulk escalation", got)
	}
	checkReseeded(t, db, rel, ix, n)
}

// TestSupervisorReseedReadsHeapOnce: one sweep re-seeds every abandoned
// range of an index — twelve leaves of its tree — from one pass over the
// heap, so with a heap pool smaller than the heap it reads each heap
// page exactly once: 18 misses. The per-page reseed it replaced scanned the
// heap once per abandoned page, twelve passes here, and missed the pool 168
// times (12 x 18 pages, less those the last pass left resident).
func TestSupervisorReseedReadsHeapOnce(t *testing.T) {
	const n, damaged = 6000, 12
	db, st, rel, ix, _ := buildFaultyDBWith(t, Config{
		PoolSize:      8, // heap frames: fewer than the heap's pages
		indexPoolSize: buffer.DefaultCapacity,
	}, n)
	defer db.Close()
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })
	heapPages := int64(rel.h.NumPages() - 1) // page 0 is the meta page
	if heapPages <= 8 {
		t.Fatalf("heap of %d pages fits its 8-frame pool — scenario is vacuous", heapPages)
	}

	if k := damageLeaves(t, st, ix, damaged); k != damaged {
		t.Fatalf("degraded scan skipped %d pages, want %d", k, damaged)
	}
	db.SuperviseOnce() // attempt 1 heals nothing: the durable images are gone
	if got := db.Health(); got != Degraded {
		t.Fatalf("health after the first sweep = %v, want Degraded", got)
	}
	time.Sleep(2 * testMaxBackoff) // every page due again
	if err := rel.h.Sync(); err != nil {
		t.Fatal(err)
	}
	pool := rel.h.Pool()
	pool.InvalidateAll()
	_, before := pool.Stats()
	db.SuperviseOnce()
	_, after := pool.Stats()
	if reads := after - before; reads != heapPages {
		t.Errorf("reseed sweep missed the heap pool %d times, want %d: one pass over the heap", reads, heapPages)
	}
	checkReseeded(t, db, rel, ix, n)
}

// TestSupervisorReseedFailureKeepsTickets: a reseed that cannot finish —
// here its heap scan meets a quarantined heap page — gives every abandoned
// page its quarantine ticket back, range and attempt count included. The
// range's keys read as quarantined, never as missing, and a later sweep
// re-seeds them.
func TestSupervisorReseedFailureKeepsTickets(t *testing.T) {
	const n = 1500
	db, st, rel, ix, tids := buildFaultyDB(t, obs.New(obs.DefaultRingCap), n)
	defer db.Close()
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })
	q := ix.Tree().Pool().Quarantine()

	damageLeaves(t, st, ix, 2)
	db.SuperviseOnce() // attempt 1 heals nothing
	before := make(map[storage.PageNo]buffer.QuarantinedPage)
	for _, e := range q.List() {
		before[e.PageNo] = e
	}
	if len(before) != 2 {
		t.Fatalf("%d pages quarantined, want 2", len(before))
	}
	time.Sleep(2 * testMaxBackoff)
	rel.Heap().Pool().QuarantinePage(tids[0].PageNo, "test: unreadable heap page", false)
	db.SuperviseOnce() // attempt 2 abandons both pages; the heap scan fails
	after := q.List()
	if len(after) != len(before) {
		t.Fatalf("%d pages quarantined after the failed reseed, want %d", len(after), len(before))
	}
	for _, e := range after {
		b, ok := before[e.PageNo]
		if !ok || !e.HasRange || !bytes.Equal(e.Lo, b.Lo) || !bytes.Equal(e.Hi, b.Hi) || e.Attempts != b.Attempts+1 {
			t.Fatalf("ticket after the failed reseed %+v, want %+v with one more attempt", e, b)
		}
	}
	if _, err := ix.LookupTID(healthKey(0)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("LookupTID in an abandoned range: %v, want ErrQuarantined", err)
	}

	// The heap page's durable image is intact: the same sweep released it,
	// and the next one due re-seeds both ranges.
	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("reseed never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	checkReseeded(t, db, rel, ix, n)
}

// TestSupervisorReseedKeepsInFlightKeys: a transaction writes one key into a
// leaf whose durable image is then lost, after its entry was flushed there,
// and one key elsewhere. The supervisor abandons the leaf and re-seeds its
// range from the heap while the transaction is still open. Once it commits,
// both keys resolve: the reseed indexed the in-flight version, because §2
// tolerates an entry for a version that later dies but not a committed
// version without one.
func TestSupervisorReseedKeepsInFlightKeys(t *testing.T) {
	const n = 1500
	db, st, rel, ix, _ := buildFaultyDB(t, obs.New(obs.DefaultRingCap), n)
	defer db.Close()
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	// inside sorts between keys 0 and 1, so it lands in the leftmost leaf,
	// the first one liveLeaves returns; outside lands in the rightmost.
	inside, outside := []byte{0, 0, 0, 0, 1}, healthKey(n+100)
	tx := db.Begin()
	for _, k := range [][]byte{inside, outside} {
		tid, err := rel.Insert(tx, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, k, tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Tree().Sync(); err != nil {
		t.Fatal(err)
	}
	fd := FaultDisks(st)["idx_acct_pk"]
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.Tree().Pool().InvalidateAll()
	rep, err := ix.ScanDegraded(nil, nil, func([]byte, heap.TID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || bytes.Compare(inside, rep.Skipped[0].Hi) >= 0 {
		t.Fatalf("skipped %+v, want one range holding the in-flight key", rep.Skipped)
	}

	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("reseed never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{inside, outside} {
		data, err := ix.FetchVisible(rel, k)
		if err != nil || !bytes.Equal(data, k) {
			t.Fatalf("committed key %x after reseed: %q, %v", k, data, err)
		}
	}
	for i := 0; i < n; i++ {
		if data, err := ix.FetchVisible(rel, healthKey(i)); err != nil || !bytes.Equal(data, healthKey(i)) {
			t.Fatalf("key %d after reseed: %q, %v", i, data, err)
		}
	}
}
