package btree

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// awaitFlying returns once n reads are parked at or passing through d.
func awaitFlying(t *testing.T, d *storage.CountingDisk, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); d.InFlight() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d reads in flight, want %d", d.InFlight(), n)
		}
		runtime.Gosched()
	}
}

// awaitGoroutines fails the test unless the goroutine count falls back to
// what it was before the tree was opened.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Open, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// wantAll is the look-ahead of a caller that wants everything.
func wantAll([]Pair) bool { return true }

// TestScanAheadOverlapsLeaves: over a cold 50k-key index, a look-ahead scan
// of 1000 keys returns what Scan returns and issues no more device reads, and
// the read of the second leaf is in flight while fn is handed the first pair
// of the first; Scan itself hints nothing.
func TestScanAheadOverlapsLeaves(t *testing.T) {
	mem := loadedDisk(t, Shadow, 50_000)
	type result struct {
		keys  [][]byte
		reads int64
		hints uint64
	}
	run := func(lookAhead bool) (r result) {
		// While hold is set, a read parks at the device until Release is
		// closed, so the test sees it in flight without timing anything.
		var hold atomic.Bool
		d := storage.NewCountingDisk(mem, holding(func(storage.PageNo) bool { return hold.Load() }))
		rec := obs.New(0)
		tr, err := Open(d, Shadow, Options{PoolSize: 256, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.AwaitBound(); err != nil {
			t.Fatal(err)
		}
		tr.Pool().InvalidateAll() // the walk warmed what fits; start cold
		d.Reset()
		var ahead LookAhead
		if lookAhead {
			// From the first leaf on, reads park: the hinted one will.
			ahead = func([]Pair) bool { hold.Store(true); return true }
		}
		err = tr.ScanAhead(u32key(20_000), u32key(21_000), ahead, func(k, _ []byte) bool {
			if len(r.keys) == 0 && lookAhead {
				awaitFlying(t, d, 1)
				hold.Store(false)
				close(d.Release)
			} else if len(r.keys) == 0 && d.InFlight() != 0 {
				t.Error("Scan has a read in flight while fn runs")
			}
			r.keys = append(r.keys, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return result{r.keys, d.Reads(), rec.Get(obs.HintIssued)}
	}
	plain, ahead := run(false), run(true)
	if len(plain.keys) != 1000 || len(ahead.keys) != 1000 {
		t.Fatalf("scans returned %d and %d keys", len(plain.keys), len(ahead.keys))
	}
	for i := range plain.keys {
		if !bytes.Equal(plain.keys[i], ahead.keys[i]) || !bytes.Equal(plain.keys[i], u32key(20_000+i)) {
			t.Fatalf("key %d: Scan %x, ScanAhead %x", i, plain.keys[i], ahead.keys[i])
		}
	}
	if plain.hints != 0 || ahead.hints == 0 {
		t.Fatalf("Scan issued %d hints, ScanAhead %d", plain.hints, ahead.hints)
	}
	// The range ends inside its last leaf, so not even one leaf too many.
	if ahead.reads > plain.reads {
		t.Fatalf("ScanAhead read %d pages, Scan %d", ahead.reads, plain.reads)
	}
}

// TestScanAheadCallsPerLeaf: the look-ahead sees every pair fn sees, leaf by
// leaf and before fn does, and when it wants no more the next leaf is not
// hinted.
func TestScanAheadCallsPerLeaf(t *testing.T) {
	d := storage.NewCountingDisk(loadedDisk(t, Shadow, 5_000), nil)
	rec := obs.New(0)
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().InvalidateAll()
	d.Reset() // the bound walk read in parallel
	var shown, emitted, leaves int
	err = tr.ScanAhead(u32key(100), u32key(900), func(leaf []Pair) bool {
		if shown != emitted {
			t.Fatalf("leaf %d shown after %d of %d earlier pairs were emitted", leaves, emitted, shown)
		}
		for i, p := range leaf {
			if !bytes.Equal(p.Key, u32key(100+shown+i)) || !bytes.Equal(p.Value, val(100+shown+i)) {
				t.Fatalf("leaf %d pair %d: %x=%q", leaves, i, p.Key, p.Value)
			}
		}
		shown += len(leaf)
		leaves++
		return false
	}, func(k, _ []byte) bool { emitted++; return true })
	if err != nil || shown != 800 || emitted != 800 || leaves < 2 {
		t.Fatalf("shown %d emitted %d over %d leaves, err %v", shown, emitted, leaves, err)
	}
	if h := rec.Get(obs.HintIssued); h != 0 || d.Peak() != 1 {
		t.Fatalf("a look-ahead that wants no more: %d hints, %d reads at once", h, d.Peak())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanAllocsPerLeaf is the allocation gate of a warm scan: one buffer
// for a leaf's pairs however many they are, and a small constant beside it.
func TestScanAllocsPerLeaf(t *testing.T) {
	tr, _ := newTree(t, Normal)
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	rows := 0
	count := func(_, _ []byte) bool { rows++; return true }
	for _, c := range []struct{ from, n int }{{1000, 1}, {1000, 50}} {
		leaves := 0
		if err := tr.ScanAhead(u32key(c.from), u32key(c.from+c.n), func([]Pair) bool { leaves++; return false }, count); err != nil {
			t.Fatal(err)
		}
		rows = 0
		allocs := measureAllocs(100, func() {
			if err := tr.Scan(u32key(c.from), u32key(c.from+c.n), count); err != nil {
				t.Fatal(err)
			}
		})
		if rows != 101*c.n {
			t.Fatalf("%d-row scans returned %d rows in 101 runs", c.n, rows)
		}
		// Per leaf: the pairs' bytes, the cursor past the last of them, the
		// descent's bound; per scan: the slice of pairs.
		if limit := float64(3*leaves + 1); allocs > limit {
			t.Fatalf("warm %d-row scan over %d leaves: %.1f allocs, want <= %.0f", c.n, leaves, allocs, limit)
		}
	}
}

// TestScanAheadRacesSplitsAndEviction: look-ahead scans in a 32-frame pool,
// where every hint evicts, race inserts that split the leaves being scanned.
// Every scan sees its keys in order and misses none that was there before it
// began; the tree is sound afterwards and no hinted read outlives Close.
func TestScanAheadRacesSplitsAndEviction(t *testing.T) {
	const n, extra = 6000, 3000
	before := runtime.NumGoroutine()
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{PoolSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(u32key(2*i), val(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				from := (s*1931 + round*677) % (n - 500)
				next := 2 * from
				err := tr.ScanAhead(u32key(2*from), u32key(2*(from+400)), wantAll, func(k, _ []byte) bool {
					for ; next < 2*(from+400) && bytes.Compare(u32key(next), k) < 0; next++ {
						if next%2 == 0 {
							t.Errorf("scan from %d skipped loaded key %d", 2*from, next)
							return false
						}
					}
					next++
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}(s)
	}
	for i := 0; i < extra; i++ {
		k := 2*((i*7919)%n) + 1
		if err := tr.Insert(u32key(k), val(k)); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.Count(); err != nil || got != n+extra {
		t.Fatalf("Count = %d, %v; want %d", got, err, n+extra)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, before)
}

// TestCloseJoinsHints: Close right behind a look-ahead scan on a slow device
// returns with the scan's last hinted read joined, not pinned under it.
func TestCloseJoinsHints(t *testing.T) {
	mem := loadedDisk(t, Shadow, 20_000)
	before := runtime.NumGoroutine()
	tr, err := Open(mem, Shadow, Options{PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().InvalidateAll()
	mem.SetLatency(50*time.Microsecond, 0)
	for from := 0; from < 20_000; from += 1000 {
		// Stop inside the first leaf: its successor's read has just begun.
		if err := tr.ScanAhead(u32key(from), nil, wantAll, func(_, _ []byte) bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().InvalidateAll() // panics on a pinned frame
	awaitGoroutines(t, before)
}

// TestInsertBatchHintsLeavesAhead: a batch of 32 keys spread over a cold
// 50k-key index reads each of its leaves once, several at a time: while one
// run works, the leaves of the runs ahead are on their way. One leaf at a
// time, the same batch read 34 pages in 34 waves; with the leaves hinted it
// reads them in 6.
func TestInsertBatchHintsLeavesAhead(t *testing.T) {
	c := &storage.IOCounter{Linger: 5 * time.Millisecond}
	rec := obs.New(0)
	tr, err := Open(storage.NewCountingDisk(loadedDisk(t, Shadow, 50_000), c), Shadow, Options{PoolSize: 256, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().InvalidateAll()
	c.Reset()
	var keys, vals [][]byte
	for i := 0; i < 32; i++ {
		keys = append(keys, append(u32key(i*1531+7), 'x'))
		vals = append(vals, val(i))
	}
	if err := tr.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	tr.Pool().StopHints()
	t.Logf("%d reads in %d waves, at most %d in flight", c.Reads(), c.Waves(), c.Peak())
	if c.Reads() > 34 || c.Waves() > 34/3 || c.Peak() < 2 || rec.Get(obs.HintWasted) != 0 {
		t.Fatalf("%d reads in %d waves, at most %d in flight, %d read ahead unused; want at most 34 in at most %d, at least 2 at once, none unused",
			c.Reads(), c.Waves(), c.Peak(), rec.Get(obs.HintWasted), 34/3)
	}
	for i, k := range keys {
		if got, err := tr.Lookup(k); err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("%x: %q, %v", k, got, err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
