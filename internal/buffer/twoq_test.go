package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// primeDisk writes n leaf pages so the pool can fault them in.
func primeDisk(t *testing.T, n int) *storage.MemDisk {
	t.Helper()
	d := storage.NewMemDisk()
	img := page.New()
	img.Init(page.TypeLeaf, 0)
	for no := storage.PageNo(0); no < storage.PageNo(n); no++ {
		img.SetSyncToken(uint64(no))
		if err := d.WritePage(no, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	return d
}

// touch faults/hits one page and reports whether it was a hit.
func touch(t *testing.T, p *Pool, no storage.PageNo) bool {
	t.Helper()
	h0, _ := p.Stats()
	f, err := p.Get(no)
	if err != nil {
		t.Fatalf("Get(%d): %v", no, err)
	}
	f.Unpin()
	h1, _ := p.Stats()
	return h1 > h0
}

// scanWorkload runs the two-phase scan-resistance mix on a fresh pool over
// d. Phase one establishes an 8-page hot set under moderate eviction
// pressure (dense re-references interleaved with double-touched scan pages,
// so the sweep observes the reuse and promotes). Phase two is the burst: a
// 10x-pool sequential scan whose pages are each read twice in quick
// succession — the correlated double reference of a real scan — with the
// hot set re-referenced only sparsely, at an interval longer than the
// clock's revolution. With hinted set, every scan page is read ahead by a
// Hint before its two touches, as a look-ahead scan reads them. Returns the
// phase-two hot-access hit rate.
func scanWorkload(t *testing.T, d *storage.MemDisk, hinted bool, rec *obs.Recorder) (hotRate float64, pool *Pool) {
	t.Helper()
	p := NewPool(d, 16) // one stripe, quota 16
	if rec != nil {
		p.SetObs(rec)
	}
	const hotN = 8
	scanNo := storage.PageNo(100)
	scanPage := func() {
		if hinted {
			p.Hint(scanNo)
			awaitHints(p)
		}
		touch(t, p, scanNo)
		touch(t, p, scanNo)
		scanNo++
	}
	for i := 0; i < 128; i++ { // phase one: earn residence
		touch(t, p, storage.PageNo(i%hotN))
		if i%2 == 0 {
			scanPage()
		}
	}
	hotHits, hotAccesses := 0, 0
	for i := 0; i < 160; i++ { // phase two: the scan burst
		scanPage()
		if i%4 == 3 {
			hot := storage.PageNo(i / 4 % hotN)
			hotAccesses++
			if touch(t, p, hot) {
				hotHits++
			}
		}
	}
	return float64(hotHits) / float64(hotAccesses), p
}

// TestScanResistantEviction: a sequential scan 10x the pool size must not
// flush a concurrently re-referenced hot set out of the cache. The
// segmented sweep promotes the re-referenced frames to the protected
// segment, where one-shot scan pages never land.
func TestScanResistantEviction(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		rec := obs.New(0)
		rate, p := scanWorkload(t, primeDisk(t, 512), hinted, rec)
		if rate < 0.9 {
			t.Fatalf("hinted=%v: hot-set hit rate %.2f under sequential scan; want >= 0.90", hinted, rate)
		}
		if rec.Get(obs.EvictPromote) == 0 {
			t.Fatalf("hinted=%v: no promotions recorded: the segmented sweep never engaged", hinted)
		}
		if hinted && (rec.Get(obs.HintIssued) == 0 || rec.Get(obs.HintWasted) != 0) {
			t.Fatalf("hints issued %d, wasted %d", rec.Get(obs.HintIssued), rec.Get(obs.HintWasted))
		}
		// The protected segment must be populated but bounded by its quota.
		for _, ps := range p.PartitionStats() {
			if ps.Protected > ps.Quota*3/4 {
				t.Fatalf("hinted=%v: stripe %d: protected=%d exceeds cap %d", hinted, ps.Partition, ps.Protected, ps.Quota*3/4)
			}
		}
	}
}

// TestScanResistanceIgnoresHints: reading the scan's pages ahead changes
// nothing: a hint is not a reference, so the hit rate with hints is the one
// without.
func TestScanResistanceIgnoresHints(t *testing.T) {
	plain, _ := scanWorkload(t, primeDisk(t, 512), false, nil)
	hinted, _ := scanWorkload(t, primeDisk(t, 512), true, nil)
	if hinted != plain {
		t.Fatalf("hit rate %.2f with the scan pages hinted, %.2f without", hinted, plain)
	}
}
