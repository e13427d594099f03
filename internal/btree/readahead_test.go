package btree

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// flightDisk counts device reads, how many are in flight, and the most that
// ever were. While hold is set, a read parks at the device until release is
// closed, so a test can see it in flight without timing anything.
type flightDisk struct {
	storage.Disk
	reads, flying, peak atomic.Int64
	hold                atomic.Bool
	release             chan struct{}
}

func (d *flightDisk) ReadPage(no storage.PageNo, buf page.Page) error {
	d.reads.Add(1)
	n := d.flying.Add(1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	if d.hold.Load() {
		<-d.release
	}
	err := d.Disk.ReadPage(no, buf)
	d.flying.Add(-1)
	return err
}

// awaitFlying returns once n reads are parked at or passing through d.
func (d *flightDisk) awaitFlying(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); d.flying.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d reads in flight, want %d", d.flying.Load(), n)
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
		d := &flightDisk{Disk: mem, release: make(chan struct{})}
		rec := obs.New(0)
		tr, err := Open(d, Shadow, Options{PoolSize: 256, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.AwaitBound(); err != nil {
			t.Fatal(err)
		}
		tr.Pool().InvalidateAll() // the walk warmed what fits; start cold
		d.reads.Store(0)
		var ahead LookAhead
		if lookAhead {
			// From the first leaf on, reads park: the hinted one will.
			ahead = func([]Pair) bool { d.hold.Store(true); return true }
		}
		err = tr.ScanAhead(u32key(20_000), u32key(21_000), ahead, func(k, _ []byte) bool {
			if len(r.keys) == 0 && lookAhead {
				d.awaitFlying(t, 1)
				d.hold.Store(false)
				close(d.release)
			} else if len(r.keys) == 0 && d.flying.Load() != 0 {
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
		return result{r.keys, d.reads.Load(), rec.Get(obs.HintIssued)}
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
	d := &flightDisk{Disk: loadedDisk(t, Shadow, 5_000)}
	rec := obs.New(0)
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().InvalidateAll()
	d.peak.Store(0) // the bound walk read in parallel
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
	if h := rec.Get(obs.HintIssued); h != 0 || d.peak.Load() != 1 {
		t.Fatalf("a look-ahead that wants no more: %d hints, %d reads at once", h, d.peak.Load())
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
