package btree

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// adjacentLeaves returns two leaves of tr that are neighbours on the peer
// chain (left.RightPeer == right), neither at an end of it, and the root.
func adjacentLeaves(t *testing.T, tr *Tree) (left, right, root uint32) {
	t.Helper()
	mf, err := tr.Pool().Get(0)
	if err != nil {
		t.Fatal(err)
	}
	root = metaPage{mf.Data}.root()
	mf.Unpin()
	for no := uint32(1); no < tr.NumPages(); no++ {
		f, err := tr.Pool().Get(no)
		if err != nil {
			t.Fatal(err)
		}
		p := f.Data
		ok := p.Valid() && p.Type() == page.TypeLeaf && p.LeftPeer() != 0 && p.RightPeer() != 0
		rp := p.RightPeer()
		f.Unpin()
		if !ok {
			continue
		}
		rf, err := tr.Pool().Get(rp)
		if err != nil {
			t.Fatal(err)
		}
		ok = rf.Data.Valid() && rf.Data.Type() == page.TypeLeaf && rf.Data.LeftPeer() == no && rf.Data.RightPeer() != 0
		rf.Unpin()
		if ok {
			return no, rp, root
		}
	}
	t.Fatal("no adjacent interior leaves")
	return 0, 0, 0
}

// TestPeerHopRule drives hopRight, the one rule by which a lookup's chase and
// a scan in either mode leave a leaf sideways, through every reason it has to
// send the caller back to the root instead.
func TestPeerHopRule(t *testing.T) {
	// A tree reopened after a crash, so that its pages predate LastCrash.
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(storage.CrashAll); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		opts    Options
		from    func(left uint32) uint32 // the page the link is said to come from
		tok     func(tok uint64) uint64  // the token read with it
		target  func(right, root uint32) uint32
		damage  func(tr *Tree, p page.Page, no uint32) // applied to the target, undone after
		trusted bool
	}{
		{name: "sound link", trusted: true},
		{name: "wrong left-peer page", from: func(l uint32) uint32 { return l + 1 }},
		{name: "wrong token", tok: func(tok uint64) uint64 { return tok + 1 }},
		{name: "non-leaf", target: func(_, root uint32) uint32 { return root }},
		{name: "pre-crash backups", damage: func(_ *Tree, p page.Page, _ uint32) { p.SetPrevNKeys(1) }},
		{name: "duplicate slot, line table not known clean", damage: func(_ *Tree, p page.Page, _ uint32) {
			p.SetSlotUnchecked(1, p.Slot(0))
			p.ClearFlag(page.FlagLineClean)
		}},
		{name: "duplicate slot under FlagLineClean", trusted: true, damage: func(_ *Tree, p page.Page, _ uint32) {
			p.SetSlotUnchecked(1, p.Slot(0)) // the flag says nobody need look
		}},
		{name: "quarantined target", damage: func(tr *Tree, _ page.Page, no uint32) {
			tr.Pool().QuarantinePage(no, "test", false)
		}},
		{name: "DisablePeerCheck, wrong left-peer page", opts: Options{noPeerCheck: true}, trusted: true,
			from: func(l uint32) uint32 { return l + 1 }},
		{name: "DisablePeerCheck, wrong token", opts: Options{noPeerCheck: true}, trusted: true,
			tok: func(tok uint64) uint64 { return tok + 1 }},
		{name: "DisablePeerCheck, pre-crash backups", opts: Options{noPeerCheck: true},
			damage: func(_ *Tree, p page.Page, _ uint32) { p.SetPrevNKeys(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Open(d.CloneStable(), Shadow, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			left, right, root := adjacentLeaves(t, tr)
			lf, err := tr.Pool().Get(left)
			if err != nil {
				t.Fatal(err)
			}
			defer lf.Unpin()
			from, tok, target := left, lf.Data.RightPeerToken(), right
			if tc.from != nil {
				from = tc.from(left)
			}
			if tc.tok != nil {
				tok = tc.tok(tok)
			}
			if tc.target != nil {
				target = tc.target(right, root)
			}
			if tc.damage != nil {
				tf, err := tr.Pool().Get(target)
				if err != nil {
					t.Fatal(err)
				}
				saved := tf.Data.Clone()
				tc.damage(tr, tf.Data, target)
				defer func() {
					copy(tf.Data, saved)
					tf.Unpin()
					tr.Pool().ReleaseQuarantine(target)
				}()
			}
			next := tr.hopRight(from, target, tok, nil)
			if got := next != nil; got != tc.trusted {
				t.Fatalf("trusted = %v, want %v", got, tc.trusted)
			}
			if next != nil {
				if next.PageNo() != target {
					t.Fatalf("hop landed on page %d, want %d", next.PageNo(), target)
				}
				next.Unpin()
			}
		})
	}
}

// TestDegradedScanHopsIntoQuarantine: a scan that reaches a quarantined leaf sideways,
// over the peer link of its left neighbour, must come out exactly like one
// that descended into it — the hop is refused, the root path names the range.
// ScanDegraded skips and reports it; Scan fails with the range attached,
// after one exclusive fallback.
func TestDegradedScanHopsIntoQuarantine(t *testing.T) {
	rec := obs.New(0)
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	_, bad, _ := adjacentLeaves(t, tr)
	bf, err := tr.Pool().Get(bad)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _, err := minMaxKeys(bf.Data)
	bf.Unpin()
	if err != nil {
		t.Fatal(err)
	}
	first, last := int(binary32(lo)), int(binary32(hi))
	tr.Pool().QuarantinePage(bad, "test", false)

	seen := make(map[int]int)
	rep, err := tr.ScanDegraded(nil, nil, func(k, _ []byte) bool { seen[int(binary32(k))]++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0].PageNo != bad ||
		!bytes.Equal(rep.Skipped[0].Lo, u32key(first)) || !bytes.Equal(rep.Skipped[0].Hi, u32key(last+1)) {
		t.Fatalf("skipped %+v, want page %d covering keys [%d, %d]", rep.Skipped, bad, first, last)
	}
	for i := 0; i < n; i++ {
		want := 1
		if i >= first && i <= last {
			want = 0
		}
		if seen[i] != want {
			t.Fatalf("key %d emitted %d times (quarantined keys are %d..%d)", i, seen[i], first, last)
		}
	}
	if rec.Get(obs.ChaseHop) == 0 {
		t.Fatal("the scan never followed a peer link: the quarantined leaf was not reached by a hop")
	}

	fallbacks := rec.Get(obs.ExclusiveFallback)
	var qe *QuarantinedRangeError
	err = tr.Scan(u32key(first-1), nil, func(_, _ []byte) bool { return true })
	if !errors.As(err, &qe) || qe.PageNo != bad || !bytes.Equal(qe.Lo, u32key(first)) || !bytes.Equal(qe.Hi, u32key(last+1)) {
		t.Fatalf("Scan across the quarantined leaf: %v", err)
	}
	if got := rec.Get(obs.ExclusiveFallback) - fallbacks; got != 1 {
		t.Fatalf("Scan took %d exclusive fallbacks", got)
	}
}

// TestFallbackIsBounded: damage the repairing descent cannot mend comes back
// from every operation as its typed error after at most one exclusive
// fallback — the shared body hands over once, and whatever the same body
// returns under the exclusive lock is final.
func TestFallbackIsBounded(t *testing.T) {
	// ops returns Lookup, Scan and InsertBatch aimed at key; the batch key is
	// absent from the tree but belongs to the same leaf.
	type op struct {
		name string
		run  func(tr *Tree) error
	}
	ops := func(key, absent int) []op {
		return []op{
			{"Lookup", func(tr *Tree) error { _, err := tr.Lookup(u32key(key)); return err }},
			{"Scan", func(tr *Tree) error {
				return tr.Scan(u32key(key), nil, func(_, _ []byte) bool { return true })
			}},
			{"InsertBatch", func(tr *Tree) error {
				k := append(u32key(absent), 'x')
				return tr.InsertBatch([][]byte{k}, [][]byte{val(absent)})
			}},
		}
	}
	bounded := func(t *testing.T, rec *obs.Recorder, tr *Tree, o op, check func(error) bool) {
		t.Helper()
		for round := 0; round < 2; round++ { // the second call finds what the first left behind
			fb, retries := rec.Get(obs.ExclusiveFallback), rec.Get(obs.LatchRetry)
			err := o.run(tr)
			if !check(err) {
				t.Fatalf("%s, call %d: %v", o.name, round+1, err)
			}
			if got := rec.Get(obs.ExclusiveFallback) - fb; got > 1 {
				t.Fatalf("%s, call %d: %d exclusive fallbacks", o.name, round+1, got)
			}
			if got := rec.Get(obs.LatchRetry) - retries; got > maxSharedRetries {
				t.Fatalf("%s, call %d: %d latch retries", o.name, round+1, got)
			}
		}
	}

	t.Run("Normal variant, zeroed leaf", func(t *testing.T) {
		d := storage.NewMemDisk()
		tr, err := Open(d, Normal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			mustInsert(t, tr, i)
		}
		_, bad, _ := adjacentLeaves(t, tr)
		bf, err := tr.Pool().Get(bad)
		if err != nil {
			t.Fatal(err)
		}
		lo, _, _, err := minMaxKeys(bf.Data)
		bf.Unpin()
		if err != nil {
			t.Fatal(err)
		}
		key := int(binary32(lo))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if !d.CorruptStable(storage.PageNo(bad), func(img page.Page) { clear(img) }) {
			t.Fatalf("page %d is not on the disk", bad)
		}
		for _, o := range ops(key, key) {
			rec := obs.New(0)
			tr, err := Open(d.CloneStable(), Normal, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			bounded(t, rec, tr, o, func(err error) bool { return errors.Is(err, ErrUnrecoverable) })
		}
	})

	t.Run("protected variant, no durable source", func(t *testing.T) {
		for i := range ops(0, 0) {
			rec := obs.New(0)
			tr, _, nPre, _ := quarantineScenario(t, rec)
			// The split was of the rightmost leaf and took both halves with
			// it: the largest committed key is in a lost range.
			o := ops(nPre-1, nPre-1)[i]
			bounded(t, rec, tr, o, func(err error) bool {
				var qe *QuarantinedRangeError
				return errors.As(err, &qe) && bytes.Compare(qe.Lo, u32key(nPre-1)) <= 0 &&
					(qe.Hi == nil || bytes.Compare(u32key(nPre-1), qe.Hi) < 0)
			})
		}
	})
}
