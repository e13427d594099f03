package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

func openMem(t *testing.T) (*DB, Storage) {
	t.Helper()
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return db, store
}

func TestInsertCommitFetch(t *testing.T) {
	db, _ := openMem(t)
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("t_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tid, err := rel.Insert(tx, []byte("row-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertTID(tx, []byte("k1"), tid); err != nil {
		t.Fatal(err)
	}
	// Before commit: index resolves but the tuple is invisible.
	if _, err := idx.FetchVisible(rel, []byte("k1")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("uncommitted tuple visible: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := idx.FetchVisible(rel, []byte("k1"))
	if err != nil || !bytes.Equal(data, []byte("row-1")) {
		t.Fatalf("after commit: %q, %v", data, err)
	}
}

func TestAbortLeavesInvalidKey(t *testing.T) {
	db, _ := openMem(t)
	rel, _ := db.CreateRelation("t")
	idx, _ := db.CreateIndex("t_pk", Reorg)
	tx := db.Begin()
	tid, err := rel.Insert(tx, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertTID(tx, []byte("d"), tid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// The index key physically exists but points at an invalid tuple —
	// exactly the state §2 says recovery and readers must tolerate.
	if _, err := idx.LookupTID([]byte("d")); err != nil {
		t.Fatalf("physical key should remain: %v", err)
	}
	if _, err := idx.FetchVisible(rel, []byte("d")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("aborted tuple visible through index: %v", err)
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	for _, v := range []Variant{Shadow, Reorg, Hybrid} {
		t.Run(v.String(), func(t *testing.T) {
			store := Memory()
			db, err := Open(store, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := db.CreateRelation("t")
			idx, _ := db.CreateIndex("t_pk", v)

			// Commit 500 rows.
			tx := db.Begin()
			for i := 0; i < 500; i++ {
				tid, err := rel.Insert(tx, []byte(fmt.Sprintf("row-%04d", i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.InsertTID(tx, []byte(fmt.Sprintf("k%04d", i)), tid); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// A second transaction in flight when the machine dies.
			tx2 := db.Begin()
			for i := 500; i < 600; i++ {
				tid, err := rel.Insert(tx2, []byte(fmt.Sprintf("row-%04d", i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.InsertTID(tx2, []byte(fmt.Sprintf("k%04d", i)), tid); err != nil {
					t.Fatal(err)
				}
			}
			// Crash mid-sync: flush everything to the OS cache, keep a
			// pseudo-random subset per file.
			for name, d := range MemoryDisks(store) {
				_ = name
				keep := 0
				if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
					var out []storage.PageNo
					for i, no := range pending {
						if i%2 == 0 {
							out = append(out, no)
							keep++
						}
					}
					return out
				}); err != nil {
					t.Fatal(err)
				}
			}

			// Restart: no log processing, just reopen.
			db2, err := Open(store, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rel2, _ := db2.CreateRelation("t")
			idx2, _ := db2.CreateIndex("t_pk", v)
			for i := 0; i < 500; i++ {
				data, err := idx2.FetchVisible(rel2, []byte(fmt.Sprintf("k%04d", i)))
				if err != nil {
					t.Fatalf("committed row %d lost: %v", i, err)
				}
				if want := fmt.Sprintf("row-%04d", i); string(data) != want {
					t.Fatalf("row %d = %q", i, data)
				}
			}
			// In-flight rows are invisible whether or not their pages
			// survived.
			for i := 500; i < 600; i++ {
				_, err := idx2.FetchVisible(rel2, []byte(fmt.Sprintf("k%04d", i)))
				if err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatalf("row %d: unexpected error %v", i, err)
				}
				if err == nil {
					t.Fatalf("uncommitted row %d visible after crash", i)
				}
			}
		})
	}
}

func TestTimeTravel(t *testing.T) {
	db, _ := openMem(t)
	rel, _ := db.CreateRelation("t")

	tx1 := db.Begin()
	tid1, err := rel.Insert(tx1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	asOf := db.Manager().HighestCommitted()

	tx2 := db.Begin()
	tid2, err := rel.Update(tx2, tid1, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Current state: v2.
	if data, err := rel.Fetch(tid2); err != nil || string(data) != "v2" {
		t.Fatalf("current: %q, %v", data, err)
	}
	if _, err := rel.Fetch(tid1); err == nil {
		t.Fatal("old version visible to current reads")
	}
	// Historical state: v1.
	if data, err := rel.FetchAsOf(tid1, asOf); err != nil || string(data) != "v1" {
		t.Fatalf("historical: %q, %v", data, err)
	}
}

func TestMakeUnique(t *testing.T) {
	db, _ := openMem(t)
	rel, _ := db.CreateRelation("t")
	idx, _ := db.CreateIndex("t_val", Shadow)
	tx := db.Begin()
	// Two tuples with the same key value: POSTGRES disambiguates with
	// the object id before the key enters the index (§2).
	tid1, _ := rel.Insert(tx, []byte("a"))
	tid2, _ := rel.Insert(tx, []byte("b"))
	if err := idx.InsertTID(tx, MakeUnique([]byte("dup"), tid1), tid1); err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertTID(tx, MakeUnique([]byte("dup"), tid2), tid2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := idx.Scan([]byte("dup"), append([]byte("dup"), 0xFF), func(k []byte, _ heap.TID) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("expected 2 entries under the duplicated value, got %d", n)
	}
}

func TestVacuumRemovesDeadKeys(t *testing.T) {
	db, _ := openMem(t)
	rel, _ := db.CreateRelation("t")
	idx, _ := db.CreateIndex("t_pk", Reorg)

	tx := db.Begin()
	var tids []struct {
		key  []byte
		data []byte
	}
	for i := 0; i < 50; i++ {
		data := []byte(fmt.Sprintf("key%02d|payload", i))
		tid, err := rel.Insert(tx, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.InsertTID(tx, data[:5], tid); err != nil {
			t.Fatal(err)
		}
		tids = append(tids, struct{ key, data []byte }{data[:5], data})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Delete half the rows (heap-level; index keys stay).
	tx2 := db.Begin()
	for i := 0; i < 50; i += 2 {
		tid, err := idx.LookupTID(tids[i].key)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Delete(tx2, tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	keyOf := func(data []byte) []byte { return data[:5] }
	st, err := db.VacuumRelation(rel, idx, keyOf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dead != 25 || st.IndexRemoved != 25 {
		t.Fatalf("vacuum stats: %+v", st)
	}
	// Deleted keys are gone from the index; survivors resolve.
	for i := 0; i < 50; i++ {
		_, err := idx.LookupTID(tids[i].key)
		if i%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("dead key %d still indexed: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("live key %d lost: %v", i, err)
		}
	}
}

// TestVacuumKeepsInFlightVersions: a version whose transaction is still open
// is not dead, however many later transactions commit before the vacuum
// runs. Once its transaction commits, its key resolves to it.
func TestVacuumKeepsInFlightVersions(t *testing.T) {
	db, _ := openMem(t)
	rel, _ := db.CreateRelation("t")
	idx, _ := db.CreateIndex("t_pk", Reorg)
	insert := func(tx *Txn, key string) {
		tid, err := rel.Insert(tx, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.InsertTID(tx, []byte(key), tid); err != nil {
			t.Fatal(err)
		}
	}
	open := db.Begin()
	insert(open, "inflight")
	later := db.Begin()
	insert(later, "committed")
	if err := later.Commit(); err != nil {
		t.Fatal(err)
	}

	st, err := db.VacuumRelation(rel, idx, func(data []byte) []byte { return data })
	if err != nil {
		t.Fatal(err)
	}
	if st.Dead != 0 || st.IndexRemoved != 0 {
		t.Fatalf("vacuum reaped a live or in-flight version: %+v", st)
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"inflight", "committed"} {
		data, err := idx.FetchVisible(rel, []byte(key))
		if err != nil || string(data) != key {
			t.Fatalf("%s after the vacuum: %q, %v", key, data, err)
		}
	}
}

func TestVacuumIndexRegeneratesFreelist(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := db.CreateIndex("x", Shadow)
	tx := db.Begin()
	for i := 0; i < 3000; i++ {
		tid := struct{}{}
		_ = tid
		if err := idx.Tree().Insert([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Abort()
	if err := idx.Tree().Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash losing the in-memory freelist.
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	idx2, _ := db2.CreateIndex("x", Shadow)
	if idx2.Tree().Freelist().Len() != 0 {
		t.Fatal("freelist should be volatile")
	}
	st, err := db2.VacuumIndex(idx2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed == 0 {
		t.Fatal("vacuum should reclaim the pages freed before the crash")
	}
	if idx2.Tree().Freelist().Len() != st.Reclaimed {
		t.Fatalf("freelist %d != reclaimed %d", idx2.Tree().Freelist().Len(), st.Reclaimed)
	}
	if err := idx2.Tree().Check(0); err != nil {
		t.Fatalf("tree damaged by vacuum: %v", err)
	}
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Dir(dir), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("t")
	idx, _ := db.CreateIndex("t_pk", Shadow)
	tx := db.Begin()
	tid, err := rel.Insert(tx, []byte("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertTID(tx, []byte("k"), tid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Dir(dir), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel2, _ := db2.CreateRelation("t")
	idx2, _ := db2.CreateIndex("t_pk", Shadow)
	data, err := idx2.FetchVisible(rel2, []byte("k"))
	if err != nil || string(data) != "persisted" {
		t.Fatalf("file-backed reopen: %q, %v", data, err)
	}
}

func TestListings(t *testing.T) {
	db, _ := openMem(t)
	if _, err := db.CreateRelation("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("z", Shadow); err != nil {
		t.Fatal(err)
	}
	rels := db.Relations()
	if len(rels) != 2 || rels[0].Name() != "a" || rels[1].Name() != "b" {
		t.Fatalf("Relations = %v", rels)
	}
	if ixs := db.Indexes(); len(ixs) != 1 || ixs[0].Name() != "z" {
		t.Fatalf("Indexes = %v", ixs)
	}
}

// faultStorage is Memory() with every disk wrapped in a FaultDisk injecting
// transient I/O errors.
type faultStorage struct {
	mu    sync.Mutex
	cfg   storage.FaultConfig
	disks map[string]*storage.FaultDisk
}

func (m *faultStorage) open(name string) (storage.Disk, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "control" {
		// The txn manager writes its control page directly, below any
		// buffer pool — retries are a pool concern, so keep it clean.
		return storage.NewMemDisk(), nil
	}
	if d, ok := m.disks[name]; ok {
		return d, nil
	}
	cfg := m.cfg
	cfg.Seed += int64(len(m.disks)) // distinct schedule per file
	d, err := storage.NewFaultDisk(storage.NewMemDisk(), cfg)
	if err != nil {
		return nil, err
	}
	m.disks[name] = d
	return d, nil
}

func (m *faultStorage) exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disks[name] != nil
}

// TestRetryAndIOStats proves every pool the DB opens retries transient I/O
// errors (buffer.DefaultRetryPolicy) and that DB.IOStats aggregates the
// resulting retry counters: a workload over 5% transient failures completes
// with no surfaced errors.
func TestRetryAndIOStats(t *testing.T) {
	fs := &faultStorage{
		cfg: storage.FaultConfig{
			Seed:               99,
			TransientReadProb:  0.05,
			TransientWriteProb: 0.05,
		},
		disks: make(map[string]*storage.FaultDisk),
	}
	db, err := Open(fs, Config{
		PoolSize: 8, // force real I/O so the fault schedule is exercised
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("t_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		tx := db.Begin()
		k := []byte(fmt.Sprintf("key-%05d", i))
		tid, err := rel.Insert(tx, append([]byte("row-"), k...))
		if err != nil {
			t.Fatalf("insert %d surfaced %v despite retries", i, err)
		}
		if err := idx.InsertTID(tx, k, tid); err != nil {
			t.Fatalf("index insert %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, err := idx.FetchVisible(rel, k); err != nil {
			t.Fatalf("fetch %q: %v", k, err)
		}
	}
	var injected int
	for _, d := range fs.disks {
		st := d.Stats()
		injected += st.TransientReads + st.TransientWrites
	}
	if injected < 10 {
		t.Fatalf("only %d transient faults injected — test is vacuous", injected)
	}
	if st := db.IOStats(); st.Retries == 0 {
		t.Fatalf("DB.IOStats reports no retries despite %d injected faults", injected)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
