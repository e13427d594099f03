package buffer

import (
	"testing"

	"repro/internal/page"
	"repro/internal/storage"
)

// BenchmarkHotpathEviction drives a scan-heavy mix at test scale: a hot set
// kept resident while a double-touched sequential scan streams past. The
// interesting output is not ns/op but the hitrate metric.
func BenchmarkHotpathEviction(b *testing.B) {
	d := storage.NewMemDisk()
	img := page.New()
	img.Init(page.TypeLeaf, 0)
	for no := storage.PageNo(0); no < 4096; no++ {
		img.SetSyncToken(uint64(no))
		if err := d.WritePage(no, img); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		b.Fatal(err)
	}
	p := NewPool(d, 64)
	get := func(no storage.PageNo) {
		f, err := p.Get(no)
		if err != nil {
			b.Fatal(err)
		}
		f.Unpin()
	}
	const hotN = 8
	// Residence phase: dense hot re-references under moderate pressure, so
	// the segmented sweep promotes the hot set.
	scanNo := storage.PageNo(64)
	for i := 0; i < 1024; i++ {
		get(storage.PageNo(i % hotN))
		if i%2 == 0 {
			get(64 + scanNo%4000)
			get(64 + scanNo%4000)
			scanNo++
		}
	}
	h0, m0 := p.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(64 + scanNo%4000)
		get(64 + scanNo%4000)
		scanNo++
		if i%8 == 7 {
			get(storage.PageNo(i / 8 % hotN))
		}
	}
	b.StopTimer()
	hits, misses := p.Stats()
	b.ReportMetric(float64(hits-h0)/float64(hits-h0+misses-m0), "hitrate")
}
