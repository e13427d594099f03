package btree

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// TestHintLeaf: HintLeaf reads the internal pages a lookup of its key reads
// and hints the leaf, which the lookup then finds arrived or arriving: the
// two together read what the lookup reads alone. The bounds it returns hold
// the leaf's keys. Of a resident leaf it hints nothing, and of an empty tree
// it has nothing to say.
func TestHintLeaf(t *testing.T) {
	d := storage.NewCountingDisk(loadedDisk(t, Shadow, 20_000), nil)
	rec := obs.New(0)
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	const k = 12_345
	tr.Pool().InvalidateAll()
	d.Reset()
	mustLookup(t, tr, k)
	alone, leaf := d.Reads(), d.LastRead()

	tr.Pool().InvalidateAll()
	d.Reset()
	lo, hi, ok := tr.HintLeaf(u32key(k))
	if !ok || rec.Get(obs.HintIssued) != 1 {
		t.Fatalf("HintLeaf: ok %v, %d hints", ok, rec.Get(obs.HintIssued))
	}
	mustLookup(t, tr, k)
	tr.Pool().InvalidateAll() // joins the hinted read
	if d.Reads() != alone {
		t.Fatalf("HintLeaf and the lookup read %d pages, the lookup alone %d", d.Reads(), alone)
	}
	f, err := tr.Pool().Get(leaf)
	if err != nil {
		t.Fatal(err)
	}
	minKey, maxKey, _, err := minMaxKeys(f.Data)
	f.Unpin()
	if err != nil || bytes.Compare(lo, minKey) > 0 || (hi != nil && bytes.Compare(maxKey, hi) >= 0) {
		t.Fatalf("bounds [%x, %x) for leaf %d holding [%x, %x] (%v)", lo, hi, leaf, minKey, maxKey, err)
	}
	if _, _, ok := tr.HintLeaf(u32key(k)); !ok || rec.Get(obs.HintIssued) != 1 {
		t.Fatalf("HintLeaf of a resident leaf: ok %v, %d hints in all", ok, rec.Get(obs.HintIssued))
	}

	empty, _ := newTree(t, Shadow)
	if _, _, ok := empty.HintLeaf(u32key(k)); ok {
		t.Fatal("HintLeaf of an empty tree gave a leaf")
	}
}

// TestVerifyPeerPathStalePeers: verifyPeerPath hints the pages its leaf's peer
// pointers name before it descends to the true neighbours, and those pointers
// are what a crash may have left naming anything. With them pointing past the
// end of the file, at quarantined pages or at freed ones, verification still
// links the leaf to the neighbours the descents find, as the strict check
// wants, and the hints leave no trace: no read of the first two, no retry,
// checksum or quarantine count, no event but the repair, and the freed pages
// are a split's to reuse. The stale pointers are in the durable image the
// tree opens, where a crash leaves them and the restart walk sees them.
func TestVerifyPeerPathStalePeers(t *testing.T) {
	// A crash image: every leaf was written before the crash and is unverified.
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		mustInsert(t, tr, 2*i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		stale      func(tr *Tree, avoid ...uint32) (left, right uint32)
		quarantine bool   // the stale pages are quarantined once the tree is open
		hints      uint64 // reads the hints start: of the stale pages, if anything
	}{
		{name: "past the end of the file", stale: func(tr *Tree, _ ...uint32) (uint32, uint32) {
			return tr.NumPages() + 100, tr.NumPages() + 101
		}},
		{name: "quarantined page", quarantine: true, stale: func(tr *Tree, avoid ...uint32) (uint32, uint32) {
			left := otherLeaf(t, tr, avoid...)
			return left, otherLeaf(t, tr, append(avoid, left)...)
		}},
		{name: "freed page", hints: 2, stale: func(tr *Tree, _ ...uint32) (uint32, uint32) {
			// Two splits away from the leaf free their pre-split pages at
			// the next sync, and a clean close hands them to the next open
			// in the freelist; they are on no path the restart walk takes,
			// so the hints must read.
			for i, splits := 0, tr.SplitCount(); tr.SplitCount() < splits+2; i++ {
				mustInsert(t, tr, 2*i+1)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			free := tr.Freelist().Entries()
			if len(free) < 2 {
				t.Fatalf("%d freed pages", len(free))
			}
			return free[0].PageNo, free[1].PageNo
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Three leaves in a row, left to right a, l, b, from the right
			// half of the key space (the freed page's split is in the left),
			// and l's peers made stale in the durable image.
			img := d.CloneStable()
			pre, err := Open(img, Shadow, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := pre.AwaitBound(); err != nil {
				t.Fatal(err)
			}
			a, l, b := leavesInRow(t, pre)
			staleLeft, staleRight := tc.stale(pre, a, l, b)
			if err := pre.Close(); err != nil {
				t.Fatal(err)
			}
			img.CorruptStable(l, func(p page.Page) {
				p.SetLeftPeer(staleLeft)
				p.SetRightPeer(staleRight)
				p.UpdateChecksum()
			})

			rec := obs.New(64)
			tr, err := Open(img, Shadow, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.AwaitBound(); err != nil {
				t.Fatal(err)
			}
			if tc.quarantine {
				tr.Pool().QuarantinePage(staleLeft, "test", false)
				tr.Pool().QuarantinePage(staleRight, "test", false)
			}
			lf, err := tr.Pool().Get(l)
			if err != nil {
				t.Fatal(err)
			}
			minKey, _, _, err := minMaxKeys(lf.Data)
			lf.Unpin()
			if err != nil {
				t.Fatal(err)
			}
			ioCounts := func() [4]uint64 {
				return [4]uint64{rec.Get(obs.IORetry), rec.Get(obs.ZeroRoute), rec.Get(obs.TornRepair), rec.Get(obs.RetryExhausted)}
			}
			io, quarantined, events := ioCounts(), tr.Pool().Quarantine().Len(), len(rec.Events())

			mustInsert(t, tr, int(binary32(minKey))+1) // verifies l first (§3.5.1)

			if got := rec.Get(obs.RepairPeer); got != 1 {
				t.Fatalf("%d peer repairs, want 1", got)
			}
			for _, link := range [][2]uint32{{a, l}, {l, b}} {
				lf, err := tr.Pool().Get(link[0])
				if err != nil {
					t.Fatal(err)
				}
				rf, err := tr.Pool().Get(link[1])
				if err != nil {
					t.Fatal(err)
				}
				if lf.Data.RightPeer() != link[1] || rf.Data.LeftPeer() != link[0] ||
					lf.Data.RightPeerToken() != rf.Data.LeftPeerToken() {
					t.Errorf("link %d -> %d: right peer %d, left peer %d, tokens %d/%d", link[0], link[1],
						lf.Data.RightPeer(), rf.Data.LeftPeer(), lf.Data.RightPeerToken(), rf.Data.LeftPeerToken())
				}
				lf.Unpin()
				rf.Unpin()
			}
			if got := rec.Get(obs.HintIssued); got != tc.hints {
				t.Errorf("%d hinted reads, want %d", got, tc.hints)
			}
			if got := ioCounts(); got != io {
				t.Errorf("I/O counters (retry, zeroroute, tornrepair, exhausted) moved: %v, were %v", got, io)
			}
			if got := tr.Pool().Quarantine().Len(); got != quarantined {
				t.Errorf("%d pages quarantined, were %d", got, quarantined)
			}
			for _, ev := range rec.Events()[events:] {
				if ev.Kind != obs.RepairPeer.String() {
					t.Errorf("event %s on page %d: %s", ev.Kind, ev.Page, ev.Detail)
				}
			}
			tr.Pool().ReleaseQuarantine(staleLeft)
			tr.Pool().ReleaseQuarantine(staleRight)
			for i := 0; tr.Freelist().Len() > 0; i++ { // splits until the freed pages are reused
				mustInsert(t, tr, 1001+2*i)
			}
			if err := tr.RecoverAll(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// leavesInRow returns three leaves of tr that follow one another on the peer
// chain, from the right half of the key space.
func leavesInRow(t *testing.T, tr *Tree) (a, l, b uint32) {
	t.Helper()
	for no := tr.NumPages() - 1; no > 0; no-- {
		f, err := tr.Pool().Get(no)
		if err != nil {
			t.Fatal(err)
		}
		p := f.Data
		ok := p.Valid() && p.Type() == page.TypeLeaf && p.LeftPeer() != 0 && p.RightPeer() != 0
		a, b = p.LeftPeer(), p.RightPeer()
		f.Unpin()
		if ok {
			return a, no, b
		}
	}
	t.Fatal("no leaf with two peers")
	return 0, 0, 0
}

// otherLeaf returns a leaf of tr that is none of avoid.
func otherLeaf(t *testing.T, tr *Tree, avoid ...uint32) uint32 {
	t.Helper()
	for no := uint32(1); no < tr.NumPages(); no++ {
		f, err := tr.Pool().Get(no)
		if err != nil {
			t.Fatal(err)
		}
		leaf := f.Data.Valid() && f.Data.Type() == page.TypeLeaf
		f.Unpin()
		if leaf && !slices.Contains(avoid, no) {
			return no
		}
	}
	t.Fatal("no other leaf")
	return 0
}

// TestRecoverAllWritesNothingWhenHealthy: the eager recovery pass over a tree
// with nothing to repair — one that never crashed, and an intact crash image
// whose leaves the restart walk proved linked — writes no page. It used to
// verify, and so dirty, every leaf not marked verified on its page.
func TestRecoverAllWritesNothingWhenHealthy(t *testing.T) {
	d, rec := storage.NewMemDisk(), obs.New(0)
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed, reopenedRec := d.CloneStable(), obs.New(0) // the machine dies
	reopened, err := Open(crashed, Shadow, Options{Obs: reopenedRec})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, tc := range []struct {
		name string
		tr   *Tree
		d    *storage.MemDisk
		rec  *obs.Recorder
	}{{"never crashed", tr, d, rec}, {"intact crash image", reopened, crashed, reopenedRec}} {
		if err := tc.tr.Sync(); err != nil {
			t.Fatal(err)
		}
		before, _, _ := tc.d.Stats()
		if err := tc.tr.RecoverAll(); err != nil {
			t.Fatal(err)
		}
		if err := tc.tr.Sync(); err != nil {
			t.Fatal(err)
		}
		writes, _, _ := tc.d.Stats()
		if writes != before || tc.rec.Get(obs.RepairPeer) != 0 {
			t.Errorf("%s: RecoverAll and a sync wrote %d pages and re-linked %d peers, want none",
				tc.name, writes-before, tc.rec.Get(obs.RepairPeer))
		}
		if err := tc.tr.Check(CheckStrict); err != nil {
			t.Fatal(err)
		}
	}
}
