package btree

// Design-choice ablations from DESIGN.md: each switches one mechanism off
// (or picks the other technique) on a Table 1-sized index.

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// buildAscending constructs the Table 1 index: n ascending 4-byte keys,
// the paper's worst case for split performance.
func buildAscending(b *testing.B, v Variant, n int, opts Options) *Tree {
	b.Helper()
	tr, err := Open(storage.NewMemDisk(), v, opts)
	if err != nil {
		b.Fatal(err)
	}
	value := []byte("v00000000")
	for i := 0; i < n; i++ {
		if err := tr.Insert(u32key(i), value); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

// BenchmarkAblationRangeCheck isolates the cost of the descent-time
// key-range verification — the overhead Table 1 attributes to "verifying
// inter-page links in traversing the tree".
func BenchmarkAblationRangeCheck(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			tr := buildAscending(b, Shadow, 40000, Options{noRangeCheck: disable})
			if err := tr.Sync(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Lookup(u32key(rng.Intn(40000))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPeerToken isolates the peer-pointer sync-token
// verification on scans (§3.5.1).
func BenchmarkAblationPeerToken(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			tr := buildAscending(b, Shadow, 40000, Options{noPeerCheck: disable})
			if err := tr.Sync(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := tr.Scan(u32key(0), u32key(10000), func(_, _ []byte) bool { n++; return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReorgDoubleSplit measures the §3.4 reclaim case (1)
// penalty: random inserts hit pages still carrying un-synced duplicate keys
// and must block for a sync, the workload shape the paper says page
// reorganization handles worst.
func BenchmarkAblationReorgDoubleSplit(b *testing.B) {
	for _, v := range []Variant{Reorg, Shadow} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := obs.New(0)
				tr, err := Open(storage.NewMemDisk(), v, Options{Obs: rec})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				for _, k := range rng.Perm(20000) {
					if err := tr.Insert(u32key(k), []byte("v")); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rec.Get(obs.BlockedSync)), "forced-syncs")
			}
		})
	}
}

// BenchmarkAblationHybrid compares the §1 hybrid suggestion (shadow at the
// leaves, reorganization above) against both parents on the Table 1 insert
// workload.
func BenchmarkAblationHybrid(b *testing.B) {
	for _, v := range []Variant{Shadow, Reorg, Hybrid} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildAscending(b, v, 20000, Options{})
			}
		})
	}
}
