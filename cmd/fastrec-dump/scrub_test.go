package main

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/storage"
)

func u32(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

// buildIndexFile creates a cleanly closed file-backed shadow index with n
// committed keys and returns its path.
func buildIndexFile(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.pg")
	d, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.Open(d, btree.Shadow, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(u32(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildTornCrashFile produces the file scrub exists for: a crash interrupts
// the sync of a leaf split and tears the freshly written pages, leaving
// checksum-invalid images in the real file. Returns the path and the
// committed key count.
func buildTornCrashFile(t *testing.T) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.pg")
	inner, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := storage.NewFaultDisk(inner, storage.FaultConfig{
		Seed:          1,
		TornWriteProb: 1,
		TornMode:      storage.TearFresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.Open(fd, btree.Shadow, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const nPre = 2000
	for i := 0; i < nPre; i++ {
		if err := tr.Insert(u32(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Insert until a split writes fresh pages, then crash mid-sync with
	// every page "surviving" — but fresh ones torn.
	base := tr.SplitCount()
	n := nPre
	for tr.SplitCount() == base {
		if err := tr.Insert(u32(n), []byte("v")); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := fd.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	if fd.Stats().TornWrites == 0 {
		t.Fatal("crash tore no pages — scenario is vacuous")
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	return path, nPre
}

func TestScrubCleanFile(t *testing.T) {
	path := buildIndexFile(t, 2000)
	bad, total, err := scrubFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("fresh index file reports damage: %v", bad)
	}
	if total == 0 {
		t.Fatal("scrub walked no pages")
	}
}

func TestScrubDetectsAndRepairsTornCrash(t *testing.T) {
	path, committed := buildTornCrashFile(t)

	bad, total, err := scrubFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Fatal("scrub missed the torn pages")
	}
	for _, no := range bad {
		if no == 0 {
			t.Fatal("meta page must never be torn under TearFresh")
		}
	}

	// The scrub -repair workflow.
	rec, quarantined, err := repairFile(path, btree.Shadow, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Get(obs.ZeroRoute) == 0 {
		t.Fatal("repair never saw a checksum failure")
	}
	if len(quarantined) != 0 {
		t.Fatalf("torn split pages must be repairable, got quarantined %v", quarantined)
	}

	still, _, err := scrubFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(still) != 0 {
		t.Fatalf("damage remains after repair: %v (was %v of %d)", still, bad, total)
	}

	// Every committed key survived the torn pages.
	d, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tr, err := btree.Open(d, btree.Shadow, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		if _, err := tr.Lookup(u32(i)); err != nil {
			t.Fatalf("committed key %d lost: %v", i, err)
		}
	}
	if err := tr.Check(btree.CheckStrict); err != nil {
		t.Fatal(err)
	}
}
