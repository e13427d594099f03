package btree

// Parallel benchmarks for the §3.6 concurrency protocol: ops/sec scaling
// of lookups, inserts, and a 50/50 mix at 1/2/4/8 goroutines over one
// tree, for all three variants (E7 in DESIGN.md, "§3.6 realized").
//
// The regime mirrors the paper's hardware balance: a simulated per-page
// device latency makes the workload I/O-bound, so concurrency shows up as
// overlapped I/O waits even on a single CPU — the tree is larger than the
// buffer pool and most descents miss on their leaf (EXPERIMENTS.md E7).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

const (
	benchKeys    = 80_000                 // tree size: ~460 leaves, well over the pool
	benchPool    = 256                    // 16 lock stripes
	benchLatency = 100 * time.Microsecond // simulated device latency per page I/O
)

// benchTree caches one loaded tree per variant: building 80k keys is far
// more expensive than any measurement pass, and the lookup/mixed/insert
// benchmarks can share a tree (inserts use fresh keys above the preload).
var benchTrees = struct {
	sync.Mutex
	m map[Variant]*benchState
}{m: make(map[Variant]*benchState)}

type benchState struct {
	tr   *Tree
	disk *storage.MemDisk
}

func loadBenchTree(b *testing.B, v Variant) *benchState {
	b.Helper()
	benchTrees.Lock()
	defer benchTrees.Unlock()
	if st, ok := benchTrees.m[v]; ok {
		return st
	}
	disk := storage.NewMemDisk()
	tr, err := Open(disk, v, Options{PoolSize: benchPool})
	if err != nil {
		b.Fatal(err)
	}
	value := []byte("v00000000")
	for i := 0; i < benchKeys; i++ {
		if err := tr.Insert(benchKey(i, 0), value); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		b.Fatal(err)
	}
	// Only the measurement runs against a slow device.
	disk.SetLatency(benchLatency, benchLatency)
	st := &benchState{tr: tr, disk: disk}
	benchTrees.m[v] = st
	return st
}

// benchKey builds a 12-byte key: an 8-byte position locating the target
// leaf plus a 4-byte uniquifier. The preload uses uniquifier 0; insert
// benchmarks use random nonzero uniquifiers at random positions, so fresh
// keys interleave with the preload and land on uniformly random leaves —
// the disjoint-leaf insert concurrency §3.6 promises, and leaf-miss I/O
// keeps the workload device-bound.
func benchKey(pos int, uniq uint32) []byte {
	k := make([]byte, 12)
	binary.BigEndian.PutUint64(k, uint64(pos))
	binary.BigEndian.PutUint32(k[8:], uniq)
	return k
}

var benchVariants = []Variant{Normal, Reorg, Shadow}

// procCounts are the goroutine counts of the scaling sweep. RunParallel
// spawns parallelism × GOMAXPROCS goroutines; with an I/O-bound workload
// the sweep is meaningful on any CPU count.
var procCounts = []int{1, 2, 4, 8}

func BenchmarkParallelLookup(b *testing.B) {
	for _, v := range benchVariants {
		st := loadBenchTree(b, v)
		for _, g := range procCounts {
			b.Run(fmt.Sprintf("%s/g%d", v, g), func(b *testing.B) {
				b.SetParallelism(g)
				var seed atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(int64(seed.Add(1)) * 7919))
					for pb.Next() {
						if _, err := st.tr.Lookup(benchKey(rng.Intn(benchKeys), 0)); err != nil {
							b.Error(err)
							return
						}
					}
				})
				reportOps(b)
			})
		}
	}
}

func BenchmarkParallelInsert(b *testing.B) {
	for _, v := range benchVariants {
		st := loadBenchTree(b, v)
		for _, g := range procCounts {
			b.Run(fmt.Sprintf("%s/g%d", v, g), func(b *testing.B) {
				b.SetParallelism(g)
				value := []byte("v00000000")
				var seed atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(int64(seed.Add(1)) * 15485863))
					for pb.Next() {
						k := benchKey(rng.Intn(benchKeys), 1+rng.Uint32())
						if err := st.tr.Insert(k, value); err != nil &&
							!errors.Is(err, ErrDuplicateKey) {
							b.Error(err)
							return
						}
					}
				})
				reportOps(b)
			})
		}
	}
}

func BenchmarkParallelMixed(b *testing.B) {
	for _, v := range benchVariants {
		st := loadBenchTree(b, v)
		for _, g := range procCounts {
			b.Run(fmt.Sprintf("%s/g%d", v, g), func(b *testing.B) {
				b.SetParallelism(g)
				value := []byte("v00000000")
				var seed atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(int64(seed.Add(1)) * 104729))
					for i := 0; pb.Next(); i++ {
						if i%2 == 0 {
							if _, err := st.tr.Lookup(benchKey(rng.Intn(benchKeys), 0)); err != nil {
								b.Error(err)
								return
							}
						} else {
							k := benchKey(rng.Intn(benchKeys), 1+rng.Uint32())
							if err := st.tr.Insert(k, value); err != nil &&
								!errors.Is(err, ErrDuplicateKey) {
								b.Error(err)
								return
							}
						}
					}
				})
				reportOps(b)
			})
		}
	}
}

// reportOps emits ops/sec so benchstat and the scaling check in
// EXPERIMENTS.md read directly off the benchmark output.
func reportOps(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
