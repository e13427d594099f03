package rtree

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// Counter-backed crash tests, mirroring the B-tree suite: pin a crash to a
// specific lost page and assert through the obs counters that the matching
// repair — not merely some recovery — handled it.

// splitCrashScenario is crashScenario on a caller-supplied disk, plus a
// freshness watermark: pages numbered at or above it were allocated by the
// trigger insert and had no durable image before the crash.
func splitCrashScenario(t *testing.T, d storage.Disk, nPre, trigger int) storage.PageNo {
	t.Helper()
	tr, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	wm := d.NumPages()
	for i := nPre; i < nPre+trigger; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return wm
}

// freshNodes returns the pending pages at or above the watermark whose
// buffered image is a tree node (leaf or internal) — the split halves.
func freshNodes(t *testing.T, d storage.Crasher, wm storage.PageNo) []storage.PageNo {
	t.Helper()
	buf := page.New()
	var out []storage.PageNo
	for _, no := range d.PendingPages() {
		if no < wm {
			continue
		}
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if buf.Valid() && (buf.Type() == page.TypeLeaf || buf.Type() == page.TypeInternal) {
			out = append(out, no)
		}
	}
	return out
}

// recoverAsserting reopens the crashed tree with a recorder attached,
// drives every repair to completion, verifies the committed entries, and
// returns the recorder for counter assertions.
func recoverAsserting(t *testing.T, d storage.Disk, committed int, label string) *obs.Recorder {
	t.Helper()
	rec := obs.New(obs.DefaultRingCap)
	tr, err := Open(d, 0, rec)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatalf("%s: RecoverAll: %v", label, err)
	}
	for i := 0; i < committed; i++ {
		hits, err := tr.Search(pointRect(i))
		if err != nil {
			t.Fatalf("%s: search %d: %v", label, i, err)
		}
		if !containsID(hits, uint64(i)) {
			t.Fatalf("%s: committed entry %d lost", label, i)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: Check after recovery: %v", label, err)
	}
	return rec
}

// TestSplitHalfLossRepairObserved loses exactly one freshly allocated split
// half, keeping the parent that points at both, and asserts the lost half
// was rebuilt by the split redo — visible as a repair.rtree.redo count.
func TestSplitHalfLossRepairObserved(t *testing.T) {
	nPre := findSplitTrigger(t)
	d := storage.NewMemDisk()
	wm := splitCrashScenario(t, d, nPre, 1)
	fresh := freshNodes(t, d, wm)
	if len(fresh) == 0 {
		t.Fatal("split trigger allocated no fresh node — scenario is vacuous")
	}
	if err := d.CrashPartial(storage.CrashExcept(fresh[0])); err != nil {
		t.Fatal(err)
	}
	rec := recoverAsserting(t, d, nPre, "half loss")
	if rec.Get(obs.RepairRTreeRedo) == 0 {
		t.Fatalf("no split redo recorded; counters: %v", rec.Snapshot().Counters)
	}
}

// TestBothHalvesLossRepairObserved loses every fresh node of the split —
// the parent then points at pages that never became durable, and the redo
// must re-run the quadratic split from the pre-split image.
func TestBothHalvesLossRepairObserved(t *testing.T) {
	nPre := findSplitTrigger(t)
	d := storage.NewMemDisk()
	wm := splitCrashScenario(t, d, nPre, 1)
	fresh := freshNodes(t, d, wm)
	if len(fresh) == 0 {
		t.Fatal("split trigger allocated no fresh node — scenario is vacuous")
	}
	if err := d.CrashPartial(storage.CrashExcept(fresh...)); err != nil {
		t.Fatal(err)
	}
	rec := recoverAsserting(t, d, nPre, "both halves loss")
	if rec.Get(obs.RepairRTreeRedo) == 0 {
		t.Fatalf("no split redo recorded; counters: %v", rec.Snapshot().Counters)
	}
}

// TestTornHalfRepairObserved runs the split crash over a FaultDisk that
// tears every surviving fresh-page write: the half lands checksum-invalid,
// is zero-routed by the pool on first read, and the redo rebuilds it —
// each step visible in the recorder.
func TestTornHalfRepairObserved(t *testing.T) {
	nPre := findSplitTrigger(t)
	// A tear keeps a prefix and a suffix of the new image and zero-fills
	// the middle; on a sparsely filled fresh node the middle may be zero
	// anyway, leaving a checksum-valid image that needs no repair. The
	// tear geometry is seed-deterministic, so scan seeds for one whose
	// tear actually damages a split half.
	var (
		d   *storage.FaultDisk
		rec *obs.Recorder
	)
	damaged := false
	buf := page.New()
	for seed := int64(1); seed <= 32 && !damaged; seed++ {
		var err error
		d, err = storage.NewFaultDisk(storage.NewMemDisk(), storage.FaultConfig{
			Seed:          seed,
			TornWriteProb: 1,
			TornMode:      storage.TearFresh,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec = obs.New(obs.DefaultRingCap)
		d.SetObs(rec)
		wm := splitCrashScenario(t, d, nPre, 1)
		fresh := freshNodes(t, d, wm)
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
		if d.Stats().TornWrites == 0 {
			t.Fatal("no write tore — scenario is vacuous")
		}
		for _, no := range fresh {
			if err := d.ReadPage(no, buf); err != nil || !buf.ChecksumOK() {
				damaged = true
				break
			}
		}
	}
	if !damaged {
		t.Fatal("no seed produced a checksum-visible tear of a split half")
	}

	tr, err := Open(d, 0, rec)
	if err != nil {
		t.Fatalf("reopen over torn pages: %v", err)
	}
	// Open reads every page it can reach (maxReferencedPage), the torn half
	// among them: the pool zero-routes it there, before any repair runs.
	if rec.Get(obs.ZeroRoute) == 0 {
		t.Fatalf("Open read the torn half without zero-routing it; counters: %v", rec.Snapshot().Counters)
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		hits, err := tr.Search(pointRect(i))
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !containsID(hits, uint64(i)) {
			t.Fatalf("committed entry %d lost", i)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if rec.Get(obs.InjectTorn) == 0 {
		t.Fatal("injected tear was not recorded")
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if rec.Get(obs.TornRepair) == 0 {
		t.Fatal("torn page was never classified never-durable by the pool")
	}
	if rec.Get(obs.RepairRTreeRedo) == 0 {
		t.Fatalf("torn half was never rebuilt; counters: %v", rec.Snapshot().Counters)
	}
}
