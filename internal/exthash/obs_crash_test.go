package exthash

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// These tests mirror the B-tree's counter-backed crash suite: rather than
// inferring from a clean recovery that the right repair ran, they pin a
// crash to a specific lost page and assert — through the obs counters —
// that the matching repair path fired.

// splitCrashScenario is crashScenario plus a freshness watermark: pages
// numbered at or above the returned watermark were allocated by the
// trigger inserts and had no durable image before the crash.
func splitCrashScenario(t *testing.T, d storage.Disk, nPre, trigger int) storage.PageNo {
	t.Helper()
	ix, err := Open(d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	wm := d.NumPages()
	for i := nPre; i < nPre+trigger; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return wm
}

// freshPending returns the pending pages at or above the watermark whose
// buffered image has the wanted type.
func freshPending(t *testing.T, d storage.Crasher, wm storage.PageNo, want page.Type) []storage.PageNo {
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
		if buf.Valid() && buf.Type() == want {
			out = append(out, no)
		}
	}
	return out
}

// recoverAsserting reopens the crashed index with a recorder attached,
// looks up every committed key (driving the lazy repairs), checks the
// structure, and returns the recorder for counter assertions.
func recoverAsserting(t *testing.T, d storage.Disk, committed int, label string) *obs.Recorder {
	t.Helper()
	rec := obs.New(obs.DefaultRingCap)
	ix, err := Open(d, 0, rec)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	for i := 0; i < committed; i++ {
		if _, err := ix.Lookup(key(i)); err != nil {
			t.Fatalf("%s: committed key %d lost: %v", label, i, err)
		}
	}
	if err := ix.Check(); err != nil {
		t.Fatalf("%s: Check after recovery: %v", label, err)
	}
	return rec
}

// TestBucketLossRepairObserved loses exactly the bucket a split freshly
// allocated, keeping the updated directory that points at it, and asserts
// the re-hash from the pre-split bucket was counted.
func TestBucketLossRepairObserved(t *testing.T) {
	nPre := findSplitTrigger(t)
	d := storage.NewMemDisk()
	wm := splitCrashScenario(t, d, nPre, 1)
	fresh := freshPending(t, d, wm, page.TypeBucket)
	if len(fresh) == 0 {
		t.Fatal("split trigger allocated no fresh bucket — scenario is vacuous")
	}
	if err := d.CrashPartial(storage.CrashExcept(fresh...)); err != nil {
		t.Fatal(err)
	}
	rec := recoverAsserting(t, d, nPre, "bucket loss")
	if rec.Get(obs.RepairHashBucket) == 0 {
		t.Fatalf("no bucket re-hash recorded; counters: %v", rec.Snapshot().Counters)
	}
}

// TestDirChunkLossRepairObserved crashes a directory doubling so that a
// freshly written chunk of the new directory is lost while the meta page
// (already pointing at the new directory) survives, and asserts the chunk
// rebuild from the previous directory was counted.
func TestDirChunkLossRepairObserved(t *testing.T) {
	// Find a trigger whose insert causes a doubling, as
	// TestDirectoryDoublingCrash does.
	probe, _ := newIdx(t)
	i := 0
	for probe.Doublings < 3 {
		if err := probe.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	nPre := i - 1

	d := storage.NewMemDisk()
	wm := splitCrashScenario(t, d, nPre, 1)
	fresh := freshPending(t, d, wm, page.TypeHashDir)
	if len(fresh) == 0 {
		t.Fatal("doubling wrote no fresh directory chunk — scenario is vacuous")
	}
	if err := d.CrashPartial(storage.CrashExcept(fresh[0])); err != nil {
		t.Fatal(err)
	}
	rec := recoverAsserting(t, d, nPre, "dir chunk loss")
	if rec.Get(obs.RepairHashDir) == 0 {
		t.Fatalf("no directory-chunk rebuild recorded; counters: %v", rec.Snapshot().Counters)
	}
}

// TestTornBucketRepairObserved runs the split crash over a FaultDisk that
// tears every surviving fresh-page write: the new bucket lands torn, fails
// its checksum on first read, is zero-routed by the pool, and is rebuilt
// from the pre-split bucket — each step visible in the recorder.
func TestTornBucketRepairObserved(t *testing.T) {
	nPre := findSplitTrigger(t)
	d, err := storage.NewFaultDisk(storage.NewMemDisk(), storage.FaultConfig{
		Seed:          1,
		TornWriteProb: 1,
		TornMode:      storage.TearFresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.DefaultRingCap)
	d.SetObs(rec)
	splitCrashScenario(t, d, nPre, 1)
	if err := d.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TornWrites == 0 {
		t.Fatal("no write tore — scenario is vacuous")
	}

	ix, err := Open(d, 0, rec)
	if err != nil {
		t.Fatalf("reopen over torn pages: %v", err)
	}
	for i := 0; i < nPre; i++ {
		if _, err := ix.Lookup(key(i)); err != nil {
			t.Fatalf("committed key %d lost: %v", i, err)
		}
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if rec.Get(obs.InjectTorn) == 0 {
		t.Fatal("injected tear was not recorded")
	}
	if rec.Get(obs.ZeroRoute) == 0 {
		t.Fatal("torn page was never zero-routed by the pool")
	}
	if rec.Get(obs.RepairHashBucket) == 0 {
		t.Fatalf("torn bucket was never rebuilt; counters: %v", rec.Snapshot().Counters)
	}
}
