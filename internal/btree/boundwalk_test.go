package btree

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// holding returns a counter that holds back every read hold names until its
// Release is closed.
func holding(hold func(no storage.PageNo) bool) *storage.IOCounter {
	return &storage.IOCounter{Hold: hold, Release: make(chan struct{})}
}

// loadedDisk returns a cleanly closed index of n ascending keys.
func loadedDisk(t *testing.T, v Variant, n int) *storage.MemDisk {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: u32key(i), Value: val(i)}
	}
	if _, err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOpenReadBudget: Open returns while every read except the meta page's
// is still held back, having completed the same small number of device
// reads for a 1k-key and a 50k-key index. The walk that does read the whole
// index runs behind it.
func TestOpenReadBudget(t *testing.T) {
	var budget [2]int64
	for i, n := range []int{1_000, 50_000} {
		d := storage.NewCountingDisk(loadedDisk(t, Shadow, n), holding(func(no storage.PageNo) bool { return no != 0 }))
		tr, err := Open(d, Shadow, Options{})
		if err != nil {
			t.Fatal(err)
		}
		budget[i] = d.Reads()
		close(d.Release)
		if err := tr.AwaitBound(); err != nil {
			t.Fatal(err)
		}
		// Every page of a freshly loaded index but the meta page is live.
		if walked, live := d.Reads()-budget[i], int64(d.NumPages())-1; walked != live {
			t.Fatalf("%d keys: the walk read %d of %d live pages", n, walked, live)
		}
		if got, want := tr.NumPages(), d.NumPages(); got != want {
			t.Fatalf("%d keys: bound %d on a clean %d-page file", n, got, want)
		}
		mustLookup(t, tr, n-1)
	}
	if budget[0] != budget[1] || budget[0] > 2 {
		t.Fatalf("reads completed before Open returned: %d for 1k keys, %d for 50k; want equal and <= 2", budget[0], budget[1])
	}
}

// TestBoundGate holds the walk on one leaf and checks who waits for it:
// lookups and scans of the rest of the key space are served, an insert
// blocks at the gate (counted) until the walk can finish, and nothing is
// wrong with the tree afterwards.
func TestBoundGate(t *testing.T) {
	const n = 20_000
	mem := loadedDisk(t, Shadow, n)
	// The last leaf is the last page a lookup of the largest key reads on a
	// cold pool.
	pd := storage.NewCountingDisk(mem, nil)
	probe, err := Open(pd, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	probe.Pool().InvalidateAll()
	mustLookup(t, probe, n-1)
	lastLeaf := pd.LastRead()

	rec := obs.New(0)
	d := storage.NewCountingDisk(mem, holding(func(no storage.PageNo) bool { return no == lastLeaf }))
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i += 97 {
		mustLookup(t, tr, i)
	}
	seen := 0
	if err := tr.Scan(u32key(100), u32key(600), func(_, _ []byte) bool { seen++; return true }); err != nil || seen != 500 {
		t.Fatalf("scan behind the walk: %d keys, err %v", seen, err)
	}
	select {
	case <-tr.boundReady:
		t.Fatal("the walk finished with a page still held back")
	default:
	}
	if w := rec.Get(obs.OpenGateWait); w != 0 {
		t.Fatalf("reads counted %d gate waits", w)
	}

	inserted := make(chan error, 1)
	go func() { inserted <- tr.Insert(u32key(n), val(n)) }()
	for deadline := time.Now().Add(10 * time.Second); rec.Get(obs.OpenGateWait) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the insert never reached the gate")
		}
		runtime.Gosched()
	}
	select {
	case err := <-inserted:
		t.Fatalf("insert returned (%v) before the bound was known", err)
	default:
	}
	close(d.Release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	mustLookup(t, tr, n)
	if rec.Get(obs.OpenBoundWalk) != 1 || rec.Get(obs.OpenBoundPages) == 0 || rec.Snapshot().Timers[obs.TBoundWalk.String()].Count != 1 {
		t.Fatalf("walk not recorded: %v", rec.Snapshot().Counters)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// maxDurableRef is the test's own reading of the bound's definition: the
// largest page number any pointer field of any durable page mentions.
func maxDurableRef(t *testing.T, d storage.Disk) uint32 {
	t.Helper()
	var maxRef uint32
	buf := page.New()
	for no := storage.PageNo(1); no < d.NumPages(); no++ {
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if !buf.Valid() {
			continue
		}
		noteRef(&maxRef, buf.NewPage())
		noteRef(&maxRef, buf.LeftPeer())
		noteRef(&maxRef, buf.RightPeer())
		if buf.Type() != page.TypeInternal {
			continue
		}
		for i := 0; i < max(buf.NKeys(), buf.PrevNKeys()); i++ {
			if it, err := decodeInternalItem(buf.Item(i), buf.HasFlag(page.FlagShadow)); err == nil {
				noteRef(&maxRef, it.child)
				noteRef(&maxRef, it.prev)
			}
		}
	}
	return maxRef
}

// TestLostExtensionBound: a crash keeps a split's parent and loses the new
// pages it points to, which were the end of the file. The file is now
// shorter than its own pointers reach. After the reopen, the first split
// elsewhere in the tree must not be given one of the page numbers the lost
// children's repair will rebuild them at.
func TestLostExtensionBound(t *testing.T) {
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			// Even keys, so that a split can later be forced anywhere.
			key := func(i int) int { return 2 * i }
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			committed := 3000
			for i := 0; i < committed; i++ {
				mustInsert(t, tr, key(i))
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			durableEnd := d.NumPages()
			for i, base := committed, tr.SplitCount(); tr.SplitCount() == base; i++ {
				mustInsert(t, tr, key(i))
			}
			if err := tr.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			// Keep what was rewritten in place, lose the extension.
			if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
				var keep []storage.PageNo
				for _, no := range pending {
					if no < durableEnd {
						keep = append(keep, no)
					}
				}
				return keep
			}); err != nil {
				t.Fatal(err)
			}
			maxRef := maxDurableRef(t, d)
			if maxRef < d.NumPages() {
				t.Fatalf("no pointer past the end of the file (max %d, %d pages): nothing is tested", maxRef, d.NumPages())
			}

			tr2, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			bound := tr2.NumPages()
			if bound <= maxRef {
				t.Fatalf("bound %d does not clear referenced page %d", bound, maxRef)
			}
			// Split the leftmost leaf, far from the damage: with the
			// freelist gone, its new pages come off the bound.
			for i, base := 0, tr2.SplitCount(); tr2.SplitCount() == base; i++ {
				mustInsert(t, tr2, key(i)+1)
			}
			if got := tr2.NumPages(); got <= bound {
				t.Fatalf("split allocated nothing above the bound %d (now %d)", bound, got)
			}
			for i := 0; i < committed; i++ {
				mustLookup(t, tr2, key(i))
			}
			if err := tr2.RecoverAll(); err != nil {
				t.Fatal(err)
			}
			if err := tr2.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReopenServesWhileWalking reopens a crash image on a slow device and
// at once runs lookups, scans and split-forcing inserts against it from
// several goroutines, all racing the walk and the repairs the crash left.
func TestReopenServesWhileWalking(t *testing.T) {
	const committed = 6000
	for _, v := range protectedVariants {
		t.Run(v.String(), func(t *testing.T) {
			d := storage.NewMemDisk()
			tr, err := Open(d, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < committed; i++ {
				mustInsert(t, tr, 2*i)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			for i := committed; i < committed+committed/4; i++ {
				mustInsert(t, tr, 2*i)
			}
			if err := tr.Pool().FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
				var keep []storage.PageNo
				for i, no := range pending {
					if i%3 != 1 {
						keep = append(keep, no)
					}
				}
				return keep
			}); err != nil {
				t.Fatal(err)
			}
			img := d.CloneStable()
			img.SetLatency(50*time.Microsecond, 0)

			tr2, err := Open(img, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 3; g++ {
				wg.Add(3)
				go func(g int) { // lookups of committed keys
					defer wg.Done()
					for i := g; i < committed; i += 3 {
						got, err := tr2.Lookup(u32key(2 * i))
						if err != nil || !bytes.Equal(got, val(2*i)) {
							errs <- fmt.Errorf("lookup %d: %q, %v", 2*i, got, err)
							return
						}
					}
				}(g)
				go func(g int) { // scans over committed ranges
					defer wg.Done()
					for lo := g * 500; lo+400 < committed; lo += 1500 {
						n := 0
						err := tr2.Scan(u32key(2*lo), u32key(2*(lo+400)), func(k, _ []byte) bool {
							if k[3]%2 == 0 {
								n++
							}
							return true
						})
						if err != nil || n != 400 {
							errs <- fmt.Errorf("scan from %d: %d committed keys, %v", 2*lo, n, err)
							return
						}
					}
				}(g)
				go func(g int) { // odd keys between the committed ones: every leaf splits
					defer wg.Done()
					for i := g; i < committed; i += 3 {
						if err := tr2.Insert(u32key(2*i+1), val(2*i+1)); err != nil {
							errs <- fmt.Errorf("insert %d: %v", 2*i+1, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if tr2.SplitCount() == 0 {
				t.Fatal("no split ran")
			}
			if err := tr2.RecoverAll(); err != nil {
				t.Fatal(err)
			}
			if err := tr2.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < committed; i++ {
				mustLookup(t, tr2, 2*i)
				mustLookup(t, tr2, 2*i+1)
			}
			if err := tr2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenThenCloseJoinsWalk: Close right after Open, with the walk still
// waiting on a slow device, returns cleanly and leaves no goroutine behind.
func TestOpenThenCloseJoinsWalk(t *testing.T) {
	d := loadedDisk(t, Shadow, 20_000)
	d.SetLatency(100*time.Microsecond, 100*time.Microsecond)
	before := runtime.NumGoroutine()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.boundReady:
		t.Fatal("the walk of 20k keys at 100µs a page was over before Open returned")
	default:
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has received from the walk's last statement; give the
	// goroutine the instant it needs to be gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Open, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// syncedImage returns the durable image of a v tree of 3000 even keys,
// inserted one by one (loaded in bulk with load), synced, at the instant the
// machine dies, and the tree, still open on the original disk.
func syncedImage(t *testing.T, v Variant, load bool) (*storage.MemDisk, *Tree, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	tr, err := Open(d, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if load {
		items := make([]Item, 3000)
		for i := range items {
			items[i] = Item{Key: u32key(2 * i), Value: val(2 * i)}
		}
		if _, err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
	} else {
		for i := 0; i < 3000; i++ {
			mustInsert(t, tr, 2*i)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	return d.CloneStable(), tr, d
}

// treeLeaves returns the leaves of a tree the read-only descent can judge,
// left to right, by page number.
func treeLeaves(t *testing.T, tr *Tree) []uint32 {
	t.Helper()
	sc := getDescent()
	defer putDescent(sc)
	var nos []uint32
	for cur := []byte{}; ; {
		leaf, _, err := tr.descend(descent{key: cur, mode: readOnly, ver: tr.structVer.Load()}, sc)
		if err != nil || leaf.frame == nil {
			t.Fatalf("descent to %x: %v", cur, err)
		}
		leaf.frame.Unpin()
		nos = append(nos, leaf.no)
		if leaf.hi == nil {
			return nos
		}
		cur = cloneBytes(leaf.hi)
	}
}

// keyOn returns a key that is not in the tree and lands on leaf no: one past
// its smallest key (the trees here hold even keys).
func keyOn(t *testing.T, tr *Tree, no uint32) int {
	t.Helper()
	f, err := tr.Pool().Get(no)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	minKey, _, ok, err := minMaxKeys(f.Data)
	if err != nil || !ok {
		t.Fatalf("leaf %d: no smallest key (%v)", no, err)
	}
	return int(binary32(minKey)) + 1
}

// openWalked opens d with opts and waits for the restart walk.
func openWalked(t *testing.T, d storage.Disk, opts Options) *Tree {
	t.Helper()
	tr, err := Open(d, Shadow, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.AwaitBound(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBoundWalkProvesPeerChain: the restart walk proves linked exactly the
// leaves whose §3.5.1 verification would change nothing, and the first write
// to such a leaf after the crash skips verification. A leaf next to damage
// the verification would mend stays unproven and is verified as before.
func TestBoundWalkProvesPeerChain(t *testing.T) {
	t.Run("intact crash image", func(t *testing.T) {
		for _, tc := range []struct {
			v    Variant
			load bool
		}{{Shadow, false}, {Reorg, true}} {
			img, _, _ := syncedImage(t, tc.v, tc.load)
			rec := obs.New(0)
			tr, err := Open(img, tc.v, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.AwaitBound(); err != nil {
				t.Fatal(err)
			}
			leaves := treeLeaves(t, tr)
			if got := tr.proven.count(); got != len(leaves) {
				t.Errorf("%v: %d leaves proven, want all %d", tc.v, got, len(leaves))
			}
			for _, no := range leaves {
				if !tr.proven.has(no) {
					t.Errorf("%v: leaf %d unproven", tc.v, no)
				}
				mustInsert(t, tr, keyOn(t, tr, no))
			}
			if r, f := rec.Get(obs.RepairPeer), rec.Get(obs.ExclusiveFallback); r != 0 || f != 0 {
				t.Errorf("%v: one insert into each leaf: %d peer repairs, %d exclusive fallbacks; want none", tc.v, r, f)
			}
			if err := tr.Check(CheckStrict); err != nil {
				t.Fatal(err)
			}
			tr.Close()
		}
	})

	t.Run("lost peer update", func(t *testing.T) {
		// A split whose new halves and parent reached the disk while the
		// left neighbour's peer update did not (known failure #5).
		_, tr, d := syncedImage(t, Shadow, false)
		leaves := treeLeaves(t, tr)
		p := leaves[len(leaves)/2]
		k := keyOn(t, tr, p)
		pf, err := tr.Pool().Get(p)
		if err != nil {
			t.Fatal(err)
		}
		n := pf.Data.LeftPeer()
		pf.Unpin()
		for splits := tr.SplitCount(); tr.SplitCount() == splits; k += 2 {
			mustInsert(t, tr, k)
		}
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			return slices.DeleteFunc(pending, func(no storage.PageNo) bool { return no == n })
		}); err != nil {
			t.Fatal(err)
		}

		rec := obs.New(0)
		tr = openWalked(t, d.CloneStable(), Options{Obs: rec})
		leaves = treeLeaves(t, tr)
		i := slices.Index(leaves, n)
		if i < 0 || i+3 >= len(leaves) {
			t.Fatalf("left neighbour %d at %d of %d leaves", n, i, len(leaves))
		}
		low, high := leaves[i+1], leaves[i+2]
		for no, want := range map[uint32]bool{n: false, low: false, high: true, leaves[i+3]: true} {
			if tr.proven.has(no) != want {
				t.Errorf("leaf %d proven %v, want %v", no, !want, want)
			}
		}
		mustInsert(t, tr, keyOn(t, tr, n))
		if got := rec.Get(obs.RepairPeer); got != 1 {
			t.Errorf("the insert into the neighbour re-linked %d peers, want 1", got)
		}
		if err := tr.Check(CheckStrict); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stale peer token", func(t *testing.T) {
		// Both pointers of a link agree and its two tokens do not: the link
		// is not trusted, so neither of its ends is proven.
		img, tr, _ := syncedImage(t, Shadow, false)
		leaves := treeLeaves(t, tr)
		i := len(leaves) / 2
		img.CorruptStable(leaves[i], func(p page.Page) {
			p.SetRightPeerToken(p.RightPeerToken() + 1)
			p.UpdateChecksum()
		})
		rec := obs.New(0)
		walked := openWalked(t, img, Options{Obs: rec})
		for j, want := range map[int]bool{i - 1: true, i: false, i + 1: false, i + 2: true} {
			if walked.proven.has(leaves[j]) != want {
				t.Errorf("leaf %d proven %v, want %v", leaves[j], !want, want)
			}
		}
		mustInsert(t, walked, keyOn(t, walked, leaves[i]))
		if got := rec.Get(obs.RepairPeer); got != 1 {
			t.Errorf("the insert re-linked %d peers, want 1", got)
		}
		if err := walked.Check(CheckStrict); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("verified before an earlier crash", func(t *testing.T) {
		// A leaf verified after one crash has its links checked again after
		// the next: that crash may lose the leaf's peer update, and its
		// durable image is the one the earlier verification wrote.
		img, tr, _ := syncedImage(t, Shadow, false)
		leaves := treeLeaves(t, tr)
		i := len(leaves) / 2
		n, p := leaves[i], leaves[i+1]
		img.CorruptStable(n, func(pg page.Page) {
			pg.SetRightPeerToken(pg.RightPeerToken() + 1)
			pg.UpdateChecksum()
		})
		gen := openWalked(t, img, Options{})
		mustInsert(t, gen, keyOn(t, gen, n)) // verifies n, re-linking it
		if err := gen.Sync(); err != nil {
			t.Fatal(err)
		}
		for k, splits := keyOn(t, gen, p), gen.SplitCount(); gen.SplitCount() == splits; k += 2 {
			mustInsert(t, gen, k)
		}
		if err := gen.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if err := img.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			return slices.DeleteFunc(pending, func(no storage.PageNo) bool { return no == n })
		}); err != nil {
			t.Fatal(err)
		}

		rec := obs.New(0)
		next := openWalked(t, img.CloneStable(), Options{Obs: rec})
		if next.proven.has(n) {
			t.Errorf("leaf %d proven with its peer update lost", n)
		}
		mustInsert(t, next, keyOn(t, next, n)+2)
		if got := rec.Get(obs.RepairPeer); got != 1 {
			t.Errorf("the insert re-linked %d peers, want 1", got)
		}
		if err := next.Check(CheckStrict); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("zeroed and quarantined leaves", func(t *testing.T) {
		img, tr, _ := syncedImage(t, Shadow, false)
		leaves := treeLeaves(t, tr)
		zeroed, quarantined := leaves[3], leaves[10]
		img.CorruptStable(zeroed, func(p page.Page) { clear(p) })
		d := storage.NewCountingDisk(img, holding(func(no storage.PageNo) bool { return no != 0 }))
		walked, err := Open(d, Shadow, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer walked.Close()
		walked.Pool().QuarantinePage(quarantined, "test", false)
		close(d.Release)
		if err := walked.AwaitBound(); err != nil {
			t.Fatal(err)
		}
		for i, no := range leaves[:14] {
			want := i != 2 && i != 3 && i != 4 && i != 9 && i != 10 && i != 11
			if walked.proven.has(no) != want {
				t.Errorf("leaf %d (%d from the left) proven %v, want %v", no, i, !want, want)
			}
		}
	})

	t.Run("reorg backups pending", func(t *testing.T) {
		// Every leaf a reorganization split left holding backup keys from
		// before the crash, and both its neighbours, stay unproven.
		_, tr, d := syncedImage(t, Reorg, false)
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
		img := d.CloneStable()
		walked, err := Open(img, Reorg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer walked.Close()
		if err := walked.AwaitBound(); err != nil {
			t.Fatal(err)
		}
		pending := 0
		buf := page.New()
		for no := storage.PageNo(1); no < img.NumPages(); no++ {
			if err := img.ReadPage(no, buf); err != nil {
				t.Fatal(err)
			}
			if !buf.Valid() || buf.Type() != page.TypeLeaf || buf.PrevNKeys() == 0 {
				continue
			}
			pending++
			for _, l := range []uint32{no, buf.LeftPeer(), buf.RightPeer()} {
				if walked.proven.has(l) {
					t.Errorf("leaf %d proven beside backups on leaf %d", l, no)
				}
			}
		}
		if pending == 0 {
			t.Fatal("no leaf holds backups: the case is vacuous")
		}
	})

	t.Run("ablations prove nothing", func(t *testing.T) {
		img, _, _ := syncedImage(t, Shadow, false)
		for _, opts := range []Options{{noRangeCheck: true}, {noPeerCheck: true}} {
			if n := openWalked(t, img.CloneStable(), opts).proven.count(); n != 0 {
				t.Errorf("%+v: %d leaves proven", opts, n)
			}
		}
	})

	t.Run("inserts during the walk", func(t *testing.T) {
		// Four inserts wait at the gate while the walk is held on the last
		// leaf; one of their leaves has a stale peer token. When the walk
		// is done three go through on its proof in shared mode while the
		// fourth verifies its leaf under the exclusive lock.
		img, tr, _ := syncedImage(t, Shadow, false)
		leaves := treeLeaves(t, tr)
		n := len(leaves)
		held, damaged := leaves[n-1], leaves[n/2]
		img.CorruptStable(damaged, func(p page.Page) {
			p.SetRightPeerToken(p.RightPeerToken() + 1)
			p.UpdateChecksum()
		})
		targets := []uint32{leaves[1], leaves[3], damaged, leaves[n/2+3]}
		var keys []int
		for _, no := range targets {
			keys = append(keys, keyOn(t, tr, no))
		}
		rec := obs.New(0)
		d := storage.NewCountingDisk(img, holding(func(no storage.PageNo) bool { return no == held }))
		walked, err := Open(d, Shadow, Options{Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer walked.Close()
		inserted := make(chan error, len(keys))
		for _, k := range keys {
			go func(k int) { inserted <- walked.Insert(u32key(k), val(k)) }(k)
		}
		for deadline := time.Now().Add(10 * time.Second); rec.Get(obs.OpenGateWait) < uint64(len(keys)); {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d inserts reached the gate", rec.Get(obs.OpenGateWait), len(keys))
			}
			runtime.Gosched()
		}
		close(d.Release)
		for range keys {
			if err := <-inserted; err != nil {
				t.Fatal(err)
			}
		}
		if r, f := rec.Get(obs.RepairPeer), rec.Get(obs.ExclusiveFallback); r != 1 || f != 1 {
			t.Errorf("%d peer repairs and %d exclusive fallbacks, want one each, for the damaged leaf", r, f)
		}
		for _, no := range targets {
			if !walked.proven.has(no) {
				t.Errorf("leaf %d not known linked after its insert", no)
			}
		}
		for _, k := range keys {
			mustLookup(t, walked, k)
		}
		if err := walked.Check(CheckStrict); err != nil {
			t.Fatal(err)
		}
	})
}
