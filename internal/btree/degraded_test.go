package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// quarantineScenario builds the degraded-mode fixture: a shadow split whose
// crash kept only the parent durable (both new children lost, §3.3), with
// the prevPtr images additionally unreadable — so the re-copy has no
// durable source and the first descent into each lost range must
// quarantine the subtree instead of repairing it. Returns the reopened
// tree, the fault disk, the committed key count, and the bad prev pages.
func quarantineScenario(t *testing.T, rec *obs.Recorder) (*Tree, *storage.FaultDisk, int, []storage.PageNo) {
	t.Helper()
	nPre := findSplitTrigger(t, Shadow, 600)
	trigger := []int{nPre}

	// Probe run: identify the split's parent page among the pending writes
	// (the scenario is deterministic, so the real run lays out identically).
	probe := crashScenario(t, Shadow, nPre, trigger)
	pending := probe.PendingPages()
	if err := probe.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	var parentNo storage.PageNo
	buf := page.New()
	for _, no := range pending {
		if err := probe.ReadPage(no, buf); err != nil {
			continue
		}
		if buf.Valid() && buf.Type() == page.TypeInternal {
			parentNo = no
			break
		}
	}
	if parentNo == 0 {
		t.Fatal("no internal page among the shadow split's pending writes")
	}

	fd, err := storage.NewFaultDisk(storage.NewMemDisk(), storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	crashScenarioOn(t, fd, Shadow, nPre, trigger)
	if err := fd.CrashPartial(storage.CrashOnly(parentNo)); err != nil {
		t.Fatal(err)
	}

	// The durable parent names the lost children and their prevPtrs; make
	// every prevPtr of a lost child unreadable.
	if err := fd.ReadPage(parentNo, buf); err != nil {
		t.Fatal(err)
	}
	child := page.New()
	var badPrev []storage.PageNo
	seen := make(map[storage.PageNo]bool) // both split halves share one prevPtr
	for i := 0; i < buf.NKeys(); i++ {
		it, err := decodeInternalItem(buf.Item(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if it.prev == 0 || seen[storage.PageNo(it.prev)] {
			continue
		}
		if err := fd.ReadPage(storage.PageNo(it.child), child); err == nil &&
			child.Valid() && !child.IsZeroed() {
			continue // child survived; its prev is not consulted
		}
		seen[storage.PageNo(it.prev)] = true
		fd.AddPermanentBadSector(storage.PageNo(it.prev))
		badPrev = append(badPrev, storage.PageNo(it.prev))
	}
	if len(badPrev) == 0 {
		t.Fatal("no lost child with a prevPtr — scenario is vacuous")
	}

	tr, err := Open(fd, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	return tr, fd, nPre, badPrev
}

// keyInSkipped reports whether key falls inside one of the report's
// quarantined intervals.
func keyInSkipped(rep ScanReport, key []byte) bool {
	for _, s := range rep.Skipped {
		if bytes.Compare(key, s.Lo) >= 0 && (s.Hi == nil || bytes.Compare(key, s.Hi) < 0) {
			return true
		}
	}
	return false
}

// TestDegradedScanSkipsAndReports: with an unrecoverable subtree the
// degraded scan must emit every reachable key correctly, report the
// quarantined interval, and point lookups into it must fail typed — never
// a wrong result.
func TestDegradedScanSkipsAndReports(t *testing.T) {
	rec := obs.New(obs.DefaultRingCap)
	tr, _, nPre, _ := quarantineScenario(t, rec)

	emitted := make(map[int]bool)
	rep, err := tr.ScanDegraded(nil, nil, func(k, v []byte) bool {
		i := int(binary32(k))
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("degraded scan emitted wrong value for key %d", i)
		}
		emitted[i] = true
		return true
	})
	if err != nil {
		t.Fatalf("ScanDegraded: %v", err)
	}
	if rep.Complete() {
		t.Fatal("scan over a quarantined subtree must report skipped ranges")
	}

	// Zero wrong results: every committed key is either served or inside a
	// reported skipped interval — none silently missing.
	missing, skipped := 0, 0
	for i := 0; i < nPre; i++ {
		switch {
		case emitted[i]:
		case keyInSkipped(rep, u32key(i)):
			skipped++
		default:
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d committed keys neither served nor reported skipped", missing)
	}
	if skipped == 0 {
		t.Fatal("no committed key fell in the skipped ranges — scenario is vacuous")
	}

	// Point lookups split the same way: typed failure inside the range,
	// correct answers outside it.
	var probeSkipped, probeServed bool
	for i := 0; i < nPre && !(probeSkipped && probeServed); i++ {
		if emitted[i] && !probeServed {
			mustLookup(t, tr, i)
			probeServed = true
		}
		if !emitted[i] && !probeSkipped {
			_, err := tr.Lookup(u32key(i))
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("Lookup(%d) in quarantined range: got %v, want ErrQuarantined", i, err)
			}
			var qe *QuarantinedRangeError
			if !errors.As(err, &qe) {
				t.Fatalf("Lookup(%d): error carries no range: %v", i, err)
			}
			probeSkipped = true
		}
	}
	if !probeSkipped || !probeServed {
		t.Fatal("probe did not exercise both sides of the quarantine boundary")
	}

	if rec.Get(obs.QuarantinePage) == 0 {
		t.Fatal("quarantine.page counter not bumped")
	}
	if rec.Get(obs.ScanSkip) == 0 {
		t.Fatal("scan.skip counter not bumped")
	}
}

// TestHealQuarantined: while the durable source stays unreadable the heal
// fails and the page re-enters quarantine; once the fault clears, the heal
// re-runs the §3.3 re-copy and the whole key space comes back.
func TestHealQuarantined(t *testing.T) {
	rec := obs.New(obs.DefaultRingCap)
	tr, fd, nPre, badPrev := quarantineScenario(t, rec)

	// Drive the quarantines in.
	if _, err := tr.ScanDegraded(nil, nil, func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	q := tr.Pool().Quarantine()
	entries := q.List()
	if len(entries) == 0 {
		t.Fatal("nothing quarantined")
	}

	// Heal while the fault persists: must fail and re-quarantine.
	if err := tr.HealQuarantined(entries[0].PageNo, entries[0].Lo); err == nil {
		t.Fatal("heal with the durable source still unreadable must fail")
	}
	if !q.IsQuarantined(entries[0].PageNo) {
		t.Fatal("failed heal must re-quarantine the page")
	}

	// Clear the faults; every heal now succeeds.
	for _, no := range badPrev {
		if !fd.ClearBadSector(no) {
			t.Fatalf("bad sector %d was not registered", no)
		}
	}
	// Heal to a fixed point, as the supervisor does: a page whose repair
	// reads another still-quarantined page (its prevPtr source) fails this
	// round and succeeds once the source is healed.
	for q.Len() > 0 {
		var lastErr error
		healed := 0
		for _, e := range q.List() {
			if err := tr.HealQuarantined(e.PageNo, e.Lo); err != nil {
				lastErr = fmt.Errorf("heal page %d after fault cleared: %w", e.PageNo, err)
				continue
			}
			healed++
		}
		if healed == 0 {
			t.Fatalf("heal sweep made no progress: %v", lastErr)
		}
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("%d pages still quarantined after healing", n)
	}
	if rec.Get(obs.QuarantineRelease) == 0 {
		t.Fatal("quarantine.release counter not bumped")
	}

	// Full service restored: every committed key, and the structure checks.
	if err := tr.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		mustLookup(t, tr, i)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}

// binary32 decodes the test key encoding (big-endian uint32).
func binary32(k []byte) uint32 {
	return uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3])
}
