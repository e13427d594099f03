package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
)

func kvKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// kvStore returns a cleanly closed store holding relation "kv" and index
// "kv_pk" as the server keeps them: n keys of one 100-byte version each, in
// key order, entries made unique by their TID. Key 7 then gets a second
// version, which lands on the relation's last page.
func kvStore(t *testing.T, n int) Storage {
	t.Helper()
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("kv")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("kv_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 100)
	var first heap.TID
	for from := 0; from < n; from += 1000 {
		tx := db.Begin()
		var keys [][]byte
		var tids []heap.TID
		for i := from; i < from+1000 && i < n; i++ {
			tid, err := rel.Insert(tx, value)
			if err != nil {
				t.Fatal(err)
			}
			if i == 7 {
				first = tid
			}
			keys, tids = append(keys, MakeUnique(kvKey(i), tid)), append(tids, tid)
		}
		if err := ix.InsertTIDBatch(tx, keys, tids); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	second, err := rel.Update(tx, first, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if second.PageNo == first.PageNo {
		t.Fatalf("both versions of key 7 on heap page %d", first.PageNo)
	}
	if err := ix.InsertTID(tx, MakeUnique(kvKey(7), second), second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// kv is an open kvStore with the two requests the server makes of it.
type kv struct {
	db  *DB
	rel *Relation
	ix  *Index
	rec *obs.Recorder
}

func openKV(t *testing.T, store Storage) *kv {
	t.Helper()
	rec := obs.New(0)
	db, err := Open(store, Config{PoolSize: 256, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("kv")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("kv_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Tree().AwaitBound(); err != nil {
		t.Fatal(err)
	}
	return &kv{db, rel, ix, rec}
}

// cold drops what the open and its bound walk left in the pools.
func (s *kv) cold() {
	s.ix.Tree().Pool().InvalidateAll()
	s.rel.Heap().Pool().InvalidateAll()
}

// scan is the server's SCAN <from> - <limit> on a store with no dead
// versions: the first limit rows from key from on, each fetched as it comes.
func (s *kv) scan(t *testing.T, ahead bool, from, limit int) (rows int) {
	t.Helper()
	fn := func(_ []byte, tid heap.TID) bool {
		if _, err := s.rel.Fetch(tid); err == nil {
			rows++
		}
		return rows < limit
	}
	var err error
	if ahead {
		err = s.ix.ScanAhead(s.rel, kvKey(from), nil, limit, fn)
	} else {
		err = s.ix.Scan(kvKey(from), nil, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// get is the server's GET: the visible version among the key's entries.
func (s *kv) get(t *testing.T, key []byte) (val []byte) {
	t.Helper()
	end := append(append([]byte(nil), key...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0)
	err := s.ix.ScanAhead(s.rel, key, end, 0, func(e []byte, tid heap.TID) bool {
		if data, err := s.rel.Fetch(tid); err == nil && len(e) == len(key)+heap.TIDLen {
			val = data
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// TestScanAheadOverlapsReads: a 100-row scan over a cold 50k-key store reads
// about the pages Scan reads, one after the other there, and several of them
// at once with the look-ahead; a lookup of a key with two versions on two
// cold heap pages reads both together.
func TestScanAheadOverlapsReads(t *testing.T) {
	store := kvStore(t, 50_000)
	var reads, peak [2]int64
	for i, ahead := range []bool{false, true} {
		c := &storage.IOCounter{}
		if ahead {
			c.Linger = 100 * time.Millisecond
		}
		s := openKV(t, Counted(store, c))
		s.cold()
		c.Reset()
		if rows := s.scan(t, ahead, 31_337, 100); rows != 100 {
			t.Fatalf("ahead=%v: %d rows", ahead, rows)
		}
		s.rel.Heap().Pool().StopHints() // let the last ones land before counting
		s.ix.Tree().Pool().StopHints()
		reads[i], peak[i] = c.Reads(), c.Peak()
		if err := s.db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if peak[0] != 1 || peak[1] < 2 {
		t.Fatalf("reads in flight at once: %d with Scan, %d with ScanAhead; want 1 and >= 2", peak[0], peak[1])
	}
	if reads[1] > reads[0]+2 {
		t.Fatalf("ScanAhead issued %d reads, Scan %d", reads[1], reads[0])
	}

	c := &storage.IOCounter{Linger: 100 * time.Millisecond}
	s := openKV(t, Counted(store, c))
	defer s.db.Close()
	s.rel.Heap().Pool().InvalidateAll() // the index stays warm: the leaf is no part of this
	if _, err := s.ix.LookupTID(MakeUnique(kvKey(7), heap.TID{})); err == nil {
		t.Fatal("lookup of an entry that does not exist")
	}
	c.Reset()
	if val := s.get(t, kvKey(7)); string(val) != "second" {
		t.Fatalf("GET of the key with two versions: %q", val)
	}
	if c.Reads() != 2 || c.Peak() != 2 {
		t.Fatalf("two versions on two cold heap pages: %d reads, %d in flight at once", c.Reads(), c.Peak())
	}
}

// TestResidentReadsStartNothing: on a store that is all in memory a GET and
// a SCAN issue no read, start no goroutine and count no hint.
func TestResidentReadsStartNothing(t *testing.T) {
	c := &storage.IOCounter{}
	s := openKV(t, Counted(kvStore(t, 5_000), c))
	defer s.db.Close()
	request := func() {
		if rows := s.scan(t, true, 1_234, 100); rows != 100 {
			t.Fatalf("%d rows", rows)
		}
		if val := s.get(t, kvKey(7)); string(val) != "second" {
			t.Fatalf("GET: %q", val)
		}
		if val := s.get(t, kvKey(4_321)); len(val) != 100 {
			t.Fatalf("GET: %q", val)
		}
	}
	request() // bring in what the bound walk did not
	// Join the reads that started: from here on, a hint for a page that is
	// not resident would be counted as dropped.
	s.rel.Heap().Pool().StopHints()
	s.ix.Tree().Pool().StopHints()
	hints := s.rec.Get(obs.HintIssued)
	c.Reset()
	before := runtime.NumGoroutine()
	request()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the resident requests, %d after", before, after)
	}
	if c.Reads() != 0 || s.rec.Get(obs.HintIssued) != hints || s.rec.Get(obs.HintDropped) != 0 {
		t.Fatalf("resident requests: %d reads, %d hints issued, %d dropped",
			c.Reads(), s.rec.Get(obs.HintIssued)-hints, s.rec.Get(obs.HintDropped))
	}
}

// TestCloseJoinsHints: DB.Close right behind look-ahead scans on a slow
// device, hinted reads of index and heap pages still in flight, returns
// cleanly with every one joined.
func TestCloseJoinsHints(t *testing.T) {
	store := kvStore(t, 20_000)
	before := runtime.NumGoroutine()
	s := openKV(t, store)
	s.cold()
	for _, d := range MemoryDisks(store) {
		d.SetLatency(50*time.Microsecond, 50*time.Microsecond)
	}
	for from := 0; from < 20_000; from += 1_000 {
		// Stop after one row: the leaf's other heap pages and the next leaf
		// have only just been asked for.
		err := s.ix.ScanAhead(s.rel, kvKey(from), nil, 0, func(_ []byte, tid heap.TID) bool {
			if _, err := s.rel.Fetch(tid); err != nil {
				t.Fatal(err)
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.rec.Get(obs.HintIssued) == 0 {
		t.Fatal("no hint was issued: the test is vacuous")
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	s.cold() // panics on a frame still pinned
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Open, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
