package wal

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/storage"
)

// BenchmarkRecovery regenerates the §1 availability claim: restart after a
// crash costs almost nothing because there is no log to process — repairs
// happen lazily on first use. The comparison case replays a logical log of
// the same workload, which is what a WAL system's restart must do.
func BenchmarkRecovery(b *testing.B) {
	const n = 20000
	b.Run("no-log-reopen", func(b *testing.B) {
		// One crashed image, reopened b.N times: the measured cost is
		// Open plus the first 100 lookups (which perform any repairs).
		d := storage.NewMemDisk()
		tr, err := btree.Open(d, btree.Shadow, btree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tr.Insert(key(i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tr.Sync(); err != nil {
			b.Fatal(err)
		}
		for i := n; i < n+200; i++ {
			if err := tr.Insert(key(i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tr.Pool().FlushDirty(); err != nil {
			b.Fatal(err)
		}
		if err := d.CrashPartial(func(p []storage.PageNo) []storage.PageNo { return p[:len(p)/2] }); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr2, err := btree.Open(d, btree.Shadow, btree.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 100; j++ {
				if _, err := tr2.Lookup(key(j * (n / 100))); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("log-replay", func(b *testing.B) {
		// The WAL counterpart: rebuild index state by replaying the
		// operation log.
		m := NewManager(Logical, newIdx(b, btree.Shadow), model.LeafFanout(4, 9))
		for i := 0; i < n; i++ {
			if err := m.Insert(key(i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := newIdx(b, btree.Shadow)
			if err := Recover(m.Log(), fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
}
