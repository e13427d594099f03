package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// These tests make the paper's failure model executable: a crash during a
// sync persists an arbitrary subset of the pages handed to the operating
// system (§2). For single-split scenarios the subsets are enumerated
// exhaustively, covering every case of §3.3.1 and all five cases (a)–(e)
// of §3.4; randomized fuzzing covers multi-operation epochs.

var protectedVariants = []Variant{Shadow, Reorg, Hybrid}

// crashScenario builds a deterministic tree state: nPre ascending keys
// committed by a sync, then the trigger keys inserted without a sync.
// It returns the disk with the post-trigger writes still pending.
func crashScenario(t *testing.T, v Variant, nPre int, trigger []int) storage.Crasher {
	return crashScenarioOn(t, storage.NewMemDisk(), v, nPre, trigger)
}

// crashScenarioOn builds the same state on a caller-supplied disk, letting
// the suite run over any Crasher — MemDisk or FaultDisk over either
// backend.
func crashScenarioOn(t *testing.T, d storage.Crasher, v Variant, nPre int, trigger []int) storage.Crasher {
	t.Helper()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, i := range trigger {
		mustInsert(t, tr, i)
	}
	// The crash interrupts the commit-time sync: all dirty pages have
	// been handed to the OS but only a subset will survive.
	if err := tr.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return d
}

// verifyRecovered opens the crashed disk and asserts the recovery
// guarantee: every committed key is found, the structure checks out after
// the lazy repairs complete, and the index remains fully usable.
func verifyRecovered(t *testing.T, d storage.Disk, v Variant, committed int, label string) {
	t.Helper()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	// Recovery on first use: every committed key must be reachable.
	for i := 0; i < committed; i++ {
		got, err := tr.Lookup(u32key(i))
		if err != nil {
			t.Fatalf("%s: committed key %d lost: %v", label, i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("%s: committed key %d has wrong value %q", label, i, got)
		}
	}
	// A full scan must see the committed keys in order, exactly once.
	seen := make(map[int]int)
	prev := -1
	err = tr.Scan(nil, nil, func(k, _ []byte) bool {
		kk := int(binary.BigEndian.Uint32(k))
		seen[kk]++
		if kk <= prev {
			t.Fatalf("%s: scan out of order: %d after %d", label, kk, prev)
		}
		prev = kk
		return true
	})
	if err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	for i := 0; i < committed; i++ {
		if seen[i] != 1 {
			t.Fatalf("%s: scan saw committed key %d %d times", label, i, seen[i])
		}
	}
	// After completing all pending repairs the tree is strictly valid.
	if err := tr.RecoverAll(); err != nil {
		t.Fatalf("%s: RecoverAll: %v", label, err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("%s: Check after recovery: %v", label, err)
	}
	// And still writable: insert fresh keys and find them.
	for i := 0; i < 50; i++ {
		k := 1_000_000 + i
		if err := tr.Insert(u32key(k), val(k)); err != nil {
			t.Fatalf("%s: post-recovery insert %d: %v", label, k, err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatalf("%s: post-recovery sync: %v", label, err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("%s: Check after post-recovery inserts: %v", label, err)
	}
}

// findSplitTrigger returns the number of ascending inserts after which the
// NEXT insert causes a (non-root) split, starting the search above from.
func findSplitTrigger(t *testing.T, v Variant, from int) int {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < from; i++ {
		mustInsert(t, tr, i)
	}
	base := tr.SplitCount()
	for {
		mustInsert(t, tr, i)
		i++
		if tr.SplitCount() > base {
			return i - 1
		}
		if i > 200000 {
			t.Fatal("no split found")
		}
	}
}

// TestLeafSplitCrashAllSubsets enumerates every durable subset of the pages
// written by a single leaf split and proves recovery from each.
func TestLeafSplitCrashAllSubsets(t *testing.T) {
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			// Pick a pre-count so the trigger insert splits a leaf in
			// a multi-level tree.
			nPre := findSplitTrigger(t, v, 600)
			trigger := []int{nPre}
			probe := crashScenario(t, v, nPre, trigger)
			n := len(probe.PendingPages())
			if n < 3 {
				t.Fatalf("scenario produced only %d pending pages; the trigger did not split", n)
			}
			if n > 12 {
				t.Fatalf("scenario produced %d pending pages; enumeration too large", n)
			}
			firstTouch := 0
			for mask := uint64(0); mask < uint64(1)<<n; mask++ {
				d := crashScenario(t, v, nPre, trigger)
				if err := d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("mask %0*b", n, mask)
				if bothModesAgree(t, d.(*storage.MemDisk), v, nPre, label) {
					firstTouch++
				}
				verifyRecovered(t, d, v, nPre, label)
			}
			if firstTouch == 0 {
				t.Fatal("no crash subset made a read repair on first touch: the two-mode comparison is vacuous")
			}
		})
	}
}

// bothModesAgree runs the one lookup body and the one scan body over the same
// crashed image in their two modes and demands the same answers. On copy A a
// RecoverAll pass repairs everything first, so every read after it runs
// read-only under the shared lock and must never fall back; on copy B the
// reads come first, and wherever the crash left damage the first touch falls
// back to the exclusive lock and runs the same body repairing. Both must
// return the same committed pairs, never one pair twice — not even across a
// fallback in the middle of the scan — and end strictly valid with the same
// repairs counted. (The uncommitted trigger key is left out of the comparison:
// before a recovery pass has re-linked the peer chain a scan can still reach
// the orphaned half that holds it over a token-matched hop — ROADMAP 2(a).)
// It reports whether B fell back on first touch.
func bothModesAgree(t *testing.T, crashed *storage.MemDisk, v Variant, committed int, label string) bool {
	t.Helper()
	type result struct {
		pairs     []Pair
		repairs   [3]uint64
		fallbacks uint64
	}
	run := func(recoverFirst bool) result {
		rec := obs.New(0)
		tr, err := Open(crashed.CloneStable(), v, Options{Obs: rec})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		if recoverFirst {
			if err := tr.RecoverAll(); err != nil {
				t.Fatalf("%s: RecoverAll: %v", label, err)
			}
		}
		var res result
		for i := 0; i < committed; i++ {
			got, err := tr.Lookup(u32key(i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("%s: recoverFirst=%v: committed key %d: %q, %v", label, recoverFirst, i, got, err)
			}
		}
		var prev []byte
		err = tr.Scan(nil, nil, func(k, val []byte) bool {
			if prev != nil && bytes.Compare(k, prev) <= 0 {
				t.Fatalf("%s: recoverFirst=%v: scan emitted %x after %x", label, recoverFirst, k, prev)
			}
			prev = k
			if int(binary.BigEndian.Uint32(k)) < committed {
				res.pairs = append(res.pairs, Pair{Key: k, Value: val})
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: recoverFirst=%v: scan: %v", label, recoverFirst, err)
		}
		res.fallbacks = rec.Get(obs.ExclusiveFallback)
		if !recoverFirst {
			if err := tr.RecoverAll(); err != nil {
				t.Fatalf("%s: RecoverAll after the reads: %v", label, err)
			}
		}
		if err := tr.Check(CheckStrict); err != nil {
			t.Fatalf("%s: recoverFirst=%v: Check: %v", label, recoverFirst, err)
		}
		res.repairs = [3]uint64{rec.Sum(obs.InterPageRepairs), rec.Get(obs.RepairIntraPage), rec.Get(obs.RepairPeer)}
		return res
	}
	a, b := run(true), run(false)
	if a.fallbacks != 0 {
		t.Fatalf("%s: %d exclusive fallbacks after a complete recovery pass", label, a.fallbacks)
	}
	if a.repairs[0]+a.repairs[1] > 0 && b.fallbacks == 0 {
		t.Fatalf("%s: the recovery pass repaired %v (inter, intra, peer) but no read fell back", label, a.repairs)
	}
	if a.repairs != b.repairs {
		t.Fatalf("%s: repairs (inter, intra, peer) %v recovering first, %v on first touch", label, a.repairs, b.repairs)
	}
	if len(a.pairs) != len(b.pairs) {
		t.Fatalf("%s: %d pairs recovering first, %d on first touch", label, len(a.pairs), len(b.pairs))
	}
	for i := range a.pairs {
		if !bytes.Equal(a.pairs[i].Key, b.pairs[i].Key) || !bytes.Equal(a.pairs[i].Value, b.pairs[i].Value) {
			t.Fatalf("%s: pair %d is %x=%q recovering first, %x=%q on first touch", label, i,
				a.pairs[i].Key, a.pairs[i].Value, b.pairs[i].Key, b.pairs[i].Value)
		}
	}
	return b.fallbacks > 0
}

// TestRootSplitCrashAllSubsets does the same for a split that grows the
// tree by a level, exercising the meta page's previous-root machinery.
func TestRootSplitCrashAllSubsets(t *testing.T) {
	// Find the insert count at which the first root split happens, then
	// stop just before and use the next key as the trigger.
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr, rec := newTreeObs(t, v)
			nPre := 0
			for rec.Get(obs.RootSplit) == 0 {
				mustInsert(t, tr, nPre)
				nPre++
				if nPre > 100000 {
					t.Fatal("no root split after 100000 inserts")
				}
			}
			nPre-- // the key that caused the root split becomes the trigger
			trigger := []int{nPre}

			probe := crashScenario(t, v, nPre, trigger)
			n := len(probe.PendingPages())
			if n == 0 || n > 12 {
				t.Fatalf("root-split scenario has %d pending pages", n)
			}
			for mask := uint64(0); mask < uint64(1)<<n; mask++ {
				d := crashScenario(t, v, nPre, trigger)
				if err := d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
					t.Fatal(err)
				}
				verifyRecovered(t, d, v, nPre, fmt.Sprintf("mask %0*b", n, mask))
			}
		})
	}
}

// TestFirstRootCrash covers the paper's base case: "If no root page existed
// before the failure (i.e. all keys inserted into the tree were lost), the
// root ... is initialized to an empty page."
func TestFirstRootCrash(t *testing.T) {
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, tr, 1)
			if err := tr.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			// The meta page (root pointer) survives; the root leaf
			// does not.
			if err := d.CrashPartial(storage.CrashOnly(0)); err != nil {
				t.Fatal(err)
			}
			rec := obs.New(0)
			tr2, err := Open(d, v, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr2.Lookup(u32key(1)); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("uncommitted key after losing the first root: %v", err)
			}
			if rec.Get(obs.RepairRoot) == 0 {
				t.Fatal("expected a root repair")
			}
			// The index must be usable again.
			mustInsert(t, tr2, 2)
			mustLookup(t, tr2, 2)
			if err := tr2.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// reorgSplitPages locates the participants of the last reorg leaf split in
// a crashed image: pa (the reorganized page, identified by its backups),
// pb (its newPage), and the parent.
func reorgSplitPages(t *testing.T, d storage.Disk) (pa, pb uint32) {
	t.Helper()
	// Older splits leave backups behind too (they are reclaimed lazily, and
	// ascending inserts never revisit the low half); the trigger's P_a is
	// the one stamped in the current epoch — the highest sync token.
	buf := page.New()
	var bestTok uint64
	for no := storage.PageNo(1); no < d.NumPages(); no++ {
		if err := d.ReadPage(no, buf); err != nil {
			continue
		}
		if buf.Valid() && buf.Type() == page.TypeLeaf && buf.PrevNKeys() != 0 &&
			buf.SyncToken() > bestTok {
			bestTok = buf.SyncToken()
			pa, pb = no, buf.NewPage()
		}
	}
	if pa == 0 {
		t.Fatal("no reorganized leaf found")
	}
	return pa, pb
}

// TestReorgFiveCases pins each named failure case of §3.4 to an exact
// durable subset and asserts both recovery and that the case was diagnosed
// through the expected mechanism.
func TestReorgFiveCases(t *testing.T) {
	nPre := findSplitTrigger(t, Reorg, 600)
	trigger := []int{nPre}

	// Identify the split participants from a fully-persisted copy.
	full := crashScenario(t, Reorg, nPre, trigger)
	if err := full.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	pa, pb := reorgSplitPages(t, full)
	if pa == 0 || pb == 0 {
		t.Fatalf("split participants: pa=%d pb=%d", pa, pb)
	}

	cases := []struct {
		name string
		keep func([]storage.PageNo) []storage.PageNo
	}{
		// (a) only P_a is written (replacing P): regenerate P by
		// folding the backups back in.
		{"a_only_pa", storage.CrashOnly(pa)},
		// (b) only P_a and P_b: P_b is inaccessible; same repair.
		{"b_pa_pb", storage.CrashOnly(pa, pb)},
		// (c) parent and P_a: P_b regenerated from P_a's backups.
		{"c_parent_pa", storage.CrashExcept(pb)},
		// (d) parent and P_b: P_a regenerated by dropping the moved
		// keys from the surviving pre-split image.
		{"d_parent_pb", storage.CrashExcept(pa)},
		// (e) only the parent: the split is repeated from the
		// surviving pre-split image.
		{"e_parent_only", storage.CrashExcept(pa, pb)},
		// Bonus from the text: "If only P_b is written, the tree is
		// not inconsistent (but page P_b is lost)."
		{"only_pb", storage.CrashOnly(pb)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := crashScenario(t, Reorg, nPre, trigger)
			if err := d.CrashPartial(tc.keep); err != nil {
				t.Fatal(err)
			}
			verifyRecovered(t, d, Reorg, nPre, tc.name)
		})
	}
}

// TestReorgDoubleSplitBlocksForSync verifies reclaim case (1): updating a
// page whose split happened in the current epoch must force a sync before
// the duplicate keys can be reclaimed (§3.4: "The DBMS must block for a
// sync operation before the key can be added to the page").
func TestReorgDoubleSplitBlocksForSync(t *testing.T) {
	tr, rec := newTreeObs(t, Reorg)
	// Random inserts with no explicit syncs: sooner or later a key lands
	// on a page still carrying un-synced duplicate keys from its own
	// split (ascending order would always hit the backup-free half).
	rng := rand.New(rand.NewSource(11))
	for _, i := range rng.Perm(3000) {
		mustInsert(t, tr, i)
	}
	if rec.Get(obs.BlockedSync) == 0 {
		t.Fatal("expected forced syncs for same-epoch page reuse")
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}

// TestShadowPrevPtrReuse exercises §3.3 step (3): two splits at the same
// key range between syncs reuse K1's prevPtr and free the intermediate page
// immediately.
func TestShadowPrevPtrReuse(t *testing.T) {
	tr, _ := newTree(t, Shadow)
	for i := 0; i < 400; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	freeBefore := tr.Freelist().Len()
	// Without further syncs, the rightmost leaf chain splits repeatedly
	// in one epoch: the second and later splits free pages immediately.
	for i := 400; i < 1200; i++ {
		mustInsert(t, tr, i)
	}
	if tr.Freelist().Len() <= freeBefore {
		t.Fatal("same-epoch resplits must free intermediate pages immediately")
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}

// TestFigure3WorstCase reconstructs the paper's Figure 3: after the crash
// the root-to-leaf path reaches the post-split pages while the old peer
// path still threads through the surviving pre-split page. The first
// insert into the post-split page must re-link it into the current peer
// chain before the two paths can diverge in content (§3.5.1).
func TestFigure3WorstCase(t *testing.T) {
	nPre := findSplitTrigger(t, Shadow, 600)
	trigger := []int{nPre}
	// Shadow split: keep parent and both halves, lose the left
	// neighbor's peer-pointer update. The pre-split page image remains
	// on disk, threaded into the stale chain.
	d := crashScenario(t, Shadow, nPre, trigger)

	// Find the left neighbor: among pending pages, the leaf whose right
	// peer was redirected. Identify the new low half first.
	probe := crashScenario(t, Shadow, nPre, trigger)
	if err := probe.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}
	var neighbor storage.PageNo
	buf := page.New()
	for _, no := range d.PendingPages() {
		if err := probe.ReadPage(no, buf); err != nil {
			continue
		}
		if buf.Valid() && buf.Type() == page.TypeLeaf && buf.PrevNKeys() == 0 {
			// Candidate: a leaf whose only pending change could be
			// the peer redirect (its key count unchanged from the
			// durable image).
			old := page.New()
			if err := d.ReadPage(no, old); err != nil {
				continue
			}
			if old.Valid() && old.NKeys() == buf.NKeys() && old.RightPeer() != buf.RightPeer() {
				neighbor = no
				break
			}
		}
	}
	if neighbor == 0 {
		t.Skip("no peer-redirect-only page in this scenario")
	}
	if err := d.CrashPartial(storage.CrashExcept(neighbor)); err != nil {
		t.Fatal(err)
	}
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A scan must still deliver every committed key despite the stale
	// duplicate on the chain.
	count := 0
	if err := tr.Scan(nil, nil, func(k, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count < nPre {
		t.Fatalf("scan over stale chain returned %d keys, want >= %d", count, nPre)
	}
	// Insert into the split range: the peer-path verification must fire
	// and detach the stale duplicate.
	if err := tr.Insert(u32key(2_000_000), val(2_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		mustLookup(t, tr, i)
	}
}

// TestIntraPageCrashRepairOnLookup plants a mid-insert line-table snapshot
// on disk and verifies the first use repairs it (§3.3.1–3.3.2).
func TestIntraPageCrashRepairOnLookup(t *testing.T) {
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				mustInsert(t, tr, i)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			// Corrupt the durable root-leaf image the way an
			// interrupted insert would: duplicate the last line
			// table entry (steps 1–2 of the protocol done, shift
			// not yet).
			metaBuf := page.New()
			if err := d.ReadPage(0, metaBuf); err != nil {
				t.Fatal(err)
			}
			rootNo := metaPage{metaBuf}.root()
			buf := page.New()
			if err := d.ReadPage(rootNo, buf); err != nil {
				t.Fatal(err)
			}
			n := buf.NKeys()
			buf.SetSlotUnchecked(n, buf.Slot(n-1))
			buf.SetNKeys(n + 1)
			buf.SetLower(page.SlotsEnd(n + 1))
			// A genuinely interrupted insert clears the line-clean
			// flag before touching the table; mirror that.
			buf.ClearFlag(page.FlagLineClean)
			if err := d.WritePage(rootNo, buf); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashPartial(storage.CrashAll); err != nil {
				t.Fatal(err)
			}

			rec := obs.New(0)
			tr2, err := Open(d, v, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				mustLookup(t, tr2, i)
			}
			if rec.Get(obs.RepairIntraPage) == 0 {
				t.Fatal("expected an intra-page repair")
			}
			if err := tr2.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommittedDeletesStayDeleted: a key removed before a sync must not be
// resurrected by any later crash repair (the prevPtr images consulted by
// recovery all postdate the committed delete).
func TestCommittedDeletesStayDeleted(t *testing.T) {
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				mustInsert(t, tr, i)
			}
			for i := 0; i < 400; i += 4 {
				if err := tr.Delete(u32key(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			// Trigger splits, then crash losing everything pending.
			for i := 400; i < 700; i++ {
				mustInsert(t, tr, i)
			}
			if err := tr.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashPartial(storage.CrashNone); err != nil {
				t.Fatal(err)
			}
			tr2, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				_, err := tr2.Lookup(u32key(i))
				if i%4 == 0 {
					if !errors.Is(err, ErrKeyNotFound) {
						t.Fatalf("committed delete of %d resurrected: %v", i, err)
					}
				} else if err != nil {
					t.Fatalf("committed key %d lost: %v", i, err)
				}
			}
		})
	}
}

// TestCrashFuzz drives each protected variant through many epochs of
// random inserts, random commit points, and crashes that persist random
// subsets of the pending writes — asserting after every crash that the
// last committed key set is fully recoverable and the tree stays valid.
func TestCrashFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("crash fuzzing is slow")
	}
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				fuzzOnce(t, v, seed, storage.NewMemDisk())
			}
		})
	}
}

func fuzzOnce(t *testing.T, v Variant, seed int64, d storage.Crasher) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	committed := make(map[int]bool)
	tentative := make(map[int]bool)
	next := 0

	for round := 0; round < 8; round++ {
		tr, err := Open(d, v, Options{})
		if err != nil {
			t.Fatalf("seed %d round %d: open: %v", seed, round, err)
		}
		// Recovery check: every committed key must be present.
		for k := range committed {
			if _, err := tr.Lookup(u32key(k)); err != nil {
				t.Fatalf("seed %d round %d: committed key %d lost: %v", seed, round, k, err)
			}
		}
		// tentative tracks keys known present (committed survivors plus
		// this round's inserts); it feeds the next commit point.
		// maybePresent additionally holds every key a scan surfaced:
		// uncommitted survivors — and, through a not-yet-reverified
		// stale peer chain, even keys of transactions that died in the
		// crash (the paper accepts these: the heap layer detects and
		// ignores records pointed to by invalid keys, §2). Such keys
		// must not be re-inserted blindly, but they also must never be
		// promoted to the committed set.
		tentative = make(map[int]bool, len(committed))
		for k := range committed {
			tentative[k] = true
		}
		maybePresent := make(map[int]bool)
		err = tr.Scan(nil, nil, func(k, _ []byte) bool {
			maybePresent[int(binary.BigEndian.Uint32(k))] = true
			return true
		})
		if err != nil {
			t.Fatalf("seed %d round %d: scan: %v", seed, round, err)
		}
		// The scan must at minimum cover the committed set.
		for k := range committed {
			if !maybePresent[k] {
				t.Fatalf("seed %d round %d: scan missed committed key %d", seed, round, k)
			}
		}

		ops := 100 + rng.Intn(400)
		for i := 0; i < ops; i++ {
			switch {
			case rng.Intn(100) < 85 || len(tentative) == 0:
				k := next
				if rng.Intn(4) == 0 {
					k = rng.Intn(1 << 20) // scattered keys
				} else {
					next++
				}
				if tentative[k] || maybePresent[k] {
					continue
				}
				if err := tr.Insert(u32key(k), val(k)); err != nil {
					t.Fatalf("seed %d round %d: insert %d: %v", seed, round, k, err)
				}
				tentative[k] = true
			default:
				// Delete a random tentative key. A delete that is
				// not yet covered by a sync may or may not survive
				// a crash (the page image with the delete applied
				// can be in the durable subset), so the key leaves
				// the committed set: POSTGRES itself never removes
				// index entries inside an active transaction — the
				// vacuum does it after commit — so "uncommitted
				// index delete" has no stronger contract.
				for k := range tentative {
					if err := tr.Delete(u32key(k)); err != nil {
						t.Fatalf("seed %d round %d: delete %d: %v", seed, round, k, err)
					}
					delete(tentative, k)
					delete(committed, k)
					break
				}
			}
			if rng.Intn(200) == 0 {
				if err := tr.Sync(); err != nil {
					t.Fatal(err)
				}
				committed = make(map[int]bool, len(tentative))
				for k := range tentative {
					committed[k] = true
				}
			}
		}
		if rng.Intn(2) == 0 {
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			committed = make(map[int]bool, len(tentative))
			for k := range tentative {
				committed[k] = true
			}
		}
		// Crash mid-sync: random subset of pending pages survives.
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		err = d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var keep []storage.PageNo
			for _, no := range pending {
				if rng.Intn(2) == 0 {
					keep = append(keep, no)
				}
			}
			return keep
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Final recovery: everything committed is there and the structure is
	// strictly valid after the repairs complete.
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range committed {
		if _, err := tr.Lookup(u32key(k)); err != nil {
			t.Fatalf("seed %d final: committed key %d lost: %v", seed, k, err)
		}
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatalf("seed %d final: RecoverAll: %v", seed, err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatalf("seed %d final: Check: %v", seed, err)
	}
}
