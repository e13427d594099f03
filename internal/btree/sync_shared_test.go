package btree

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

// heldWrites holds every WritePage at the device while on is set.
type heldWrites struct {
	storage.Disk
	on      atomic.Bool
	held    atomic.Int64
	release chan struct{}
}

func (d *heldWrites) WritePage(no storage.PageNo, data page.Page) error {
	if d.on.Load() {
		d.held.Add(1)
		<-d.release
	}
	return d.Disk.WritePage(no, data)
}

// TestSyncDoesNotBlockReaders: with a Sync's page writes held at the device,
// a lookup, a scan and an insert that fits its leaf complete; an insert that
// has to split waits for the sync; the tree is sound afterwards.
func TestSyncDoesNotBlockReaders(t *testing.T) {
	for _, v := range []Variant{Shadow, Reorg} {
		t.Run(v.String(), func(t *testing.T) {
			d := &heldWrites{Disk: storage.NewMemDisk(), release: make(chan struct{})}
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Even keys, ascending: every leaf but the last was split in
			// two and has room for an odd key.
			const n = 4000
			for i := 0; i < n; i += 2 {
				if err := tr.Insert(u32key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.SplitCount() < 3 {
				t.Fatalf("only %d splits: the tree has too few leaves for this test", tr.SplitCount())
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(u32key(n), val(n)); err != nil { // something to force
				t.Fatal(err)
			}

			d.on.Store(true)
			synced := make(chan error, 1)
			go func() { synced <- tr.Sync() }()
			for d.held.Load() == 0 {
				time.Sleep(time.Millisecond)
			}

			mustLookup(t, tr, 10)
			seen := 0
			if err := tr.Scan(u32key(100), u32key(300), func(_, _ []byte) bool { seen++; return true }); err != nil || seen != 100 {
				t.Fatalf("scan behind the sync: %d keys, err %v", seen, err)
			}
			splits := tr.SplitCount()
			if err := tr.Insert(u32key(11), val(11)); err != nil {
				t.Fatal(err)
			}
			if tr.SplitCount() != splits {
				t.Fatal("the insert meant to fit its leaf split it")
			}

			// Appending until the last leaf overflows needs the split lock,
			// which the sync holds.
			split := make(chan error, 1)
			go func() {
				for i := n + 2; tr.SplitCount() == splits; i += 2 {
					if err := tr.Insert(u32key(i), val(i)); err != nil {
						split <- err
						return
					}
				}
				split <- nil
			}()
			select {
			case err := <-split:
				t.Fatalf("a split completed (%v) while the sync held the split lock", err)
			case err := <-synced:
				t.Fatalf("Sync returned (%v) with its writes held", err)
			case <-time.After(100 * time.Millisecond):
			}

			d.on.Store(false)
			close(d.release)
			if err := <-synced; err != nil {
				t.Fatal(err)
			}
			if err := <-split; err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
			mustLookup(t, tr, 11)
		})
	}
}
