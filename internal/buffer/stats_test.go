package buffer

import (
	"sync"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

// TestStatsHitsPlusMissesEqualsGets pins down the accounting contract of
// the striped pool: every successful Get is classified as exactly one hit
// or one miss, summed across partitions.
func TestStatsHitsPlusMissesEqualsGets(t *testing.T) {
	d := storage.NewMemDisk()
	p := NewPool(d, 64)
	// Materialize 32 pages so reads have something to miss on.
	for no := storage.PageNo(0); no < 32; no++ {
		f, err := p.NewPage(no)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Init(page.TypeLeaf, 0)
		f.MarkDirty()
		f.Unpin()
	}
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()

	baseHits, baseMisses := p.Stats()
	gets := 0
	for round := 0; round < 5; round++ {
		for no := storage.PageNo(0); no < 32; no++ {
			f, err := p.Get(no)
			if err != nil {
				t.Fatal(err)
			}
			f.Unpin()
			gets++
		}
	}
	hits, misses := p.Stats()
	if got := (hits - baseHits) + (misses - baseMisses); got != int64(gets) {
		t.Fatalf("hits+misses = %d, want %d Gets", got, gets)
	}
	if misses-baseMisses < 32 {
		t.Fatalf("misses = %d, want at least one per invalidated page", misses-baseMisses)
	}

	// The per-partition view must agree with the aggregate.
	var pHits, pMisses int64
	for _, st := range p.PartitionStats() {
		pHits += st.Hits
		pMisses += st.Misses
	}
	if pHits != hits || pMisses != misses {
		t.Fatalf("partition stats (%d,%d) disagree with aggregate (%d,%d)",
			pHits, pMisses, hits, misses)
	}
}

// TestPartitionCountScalesWithCapacity pins the striping rule: tiny pools
// keep a single partition, large pools
// stripe up to the maximum.
func TestPartitionCountScalesWithCapacity(t *testing.T) {
	cases := []struct {
		capacity, want int
	}{
		{1, 1}, {8, 1}, {31, 1}, {32, 2}, {64, 4}, {256, 16}, {1024, 16},
	}
	for _, c := range cases {
		p := NewPool(storage.NewMemDisk(), c.capacity)
		if got := p.Partitions(); got != c.want {
			t.Errorf("capacity %d: partitions = %d, want %d", c.capacity, got, c.want)
		}
	}
}

// TestConcurrentStatReadsDuringLoad drives Gets from several goroutines
// while others continuously read Stats/PartitionStats/the quarantine depth
// and swap the retry policy. Under -race this proves the stat surfaces are
// contention-free observers of the hot path.
func TestConcurrentStatReadsDuringLoad(t *testing.T) {
	d := storage.NewMemDisk()
	p := NewPool(d, 128)
	for no := storage.PageNo(0); no < 64; no++ {
		f, err := p.NewPage(no)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Init(page.TypeLeaf, 0)
		f.MarkDirty()
		f.Unpin()
	}
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)

	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				no := storage.PageNo((g*17 + i) % 64)
				f, err := p.Get(no)
				if err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					f.WLatch()
					f.MarkDirty()
					f.WUnlatch()
				}
				f.Unpin()
			}
		}()
	}
	// Stat readers and policy writers, racing the load.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, m := p.Stats()
				_, _ = h, m
				_ = p.Quarantine().Len()
				_ = p.PartitionStats()
				p.setRetry(retryPolicy{maxAttempts: 2, baseDelay: time.Microsecond})
			}
		}()
	}
	// Flushers: SyncAll concurrent with Gets and MarkDirty.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := p.SyncAll(); err != nil {
				errs <- err
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Stop the stat readers once the bounded workers are done. The
	// workers' WaitGroup includes the readers, so signal first.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
