package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// --- crash proof for the append, by enumeration -------------------------

var errPowerCut = errors.New("power cut")

// cutDisk fails its cutAt-th WritePage or Sync (counted from 1 once armed)
// and every call after it: the machine stops at that step of an append.
type cutDisk struct {
	*storage.MemDisk
	armed bool
	cutAt int
	step  int
}

func (d *cutDisk) cut() bool {
	if !d.armed {
		return false
	}
	d.step++
	return d.step >= d.cutAt
}

func (d *cutDisk) WritePage(no storage.PageNo, data page.Page) error {
	if d.cut() {
		return errPowerCut
	}
	return d.MemDisk.WritePage(no, data)
}

func (d *cutDisk) Sync() error {
	if d.cut() {
		return errPowerCut
	}
	return d.MemDisk.Sync()
}

// beginRun hands out n XIDs the way transactions get them.
func beginRun(m *Manager, n int) []heap.XID {
	out := make([]heap.XID, n)
	for i := range out {
		out[i] = m.Begin().XID()
	}
	return out
}

// xidRun returns n consecutive XIDs from *next and advances it, for tests
// that only look at the committed set.
func xidRun(next *heap.XID, n int) []heap.XID {
	out := make([]heap.XID, n)
	for i := range out {
		out[i] = *next
		*next++
	}
	return out
}

// wantCommitted fails unless m's committed set is exactly the bootstrap
// XID plus the given batches.
func wantCommitted(t *testing.T, m *Manager, what string, batches ...[]heap.XID) {
	t.Helper()
	want := map[heap.XID]bool{1: true}
	for _, b := range batches {
		for _, x := range b {
			want[x] = true
		}
	}
	for x := range want {
		if !m.committed[x] {
			t.Fatalf("%s: committed xid %d lost", what, x)
		}
	}
	for x := range m.committed {
		if !want[x] {
			t.Fatalf("%s: xid %d resurrected", what, x)
		}
	}
}

// TestStatusAppendCrashEnumeration cuts the power at every device call of
// an append and keeps every subset of the writes pending at that instant
// (§2: any subset of a sync's pages). Whatever survives, a reopened table
// holds exactly the acknowledged batches, plus the batch in flight whole or
// not at all. The four shapes are the four an append can take: it fits the
// tail page, fills it exactly, crosses onto the next page, spans three.
func TestStatusAppendCrashEnumeration(t *testing.T) {
	shapes := []struct {
		name         string
		prefill, len int
	}{
		{"fits", xidsPerPage - 10, 5},
		{"fills exactly", xidsPerPage - 10, 9}, // prefill counts the bootstrap XID too
		{"crosses", xidsPerPage - 10, 30},
		{"spans three pages", xidsPerPage - 10, xidsPerPage + 30},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cases := 0
			for cutAt := 1; ; cutAt++ {
				finished := false
				for mask := uint64(0); ; mask++ {
					d := &cutDisk{MemDisk: storage.NewMemDisk(), cutAt: cutAt}
					m, err := OpenManager(d)
					if err != nil {
						t.Fatal(err)
					}
					acked := beginRun(m, sh.prefill)
					if err := m.appendStatus(acked); err != nil {
						t.Fatal(err)
					}
					inflight := beginRun(m, sh.len)
					d.armed = true
					err = m.appendStatus(inflight)
					finished = err == nil
					pending := d.PendingPages()
					if mask >= 1<<len(pending) {
						break
					}
					cases++
					if err := d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
						t.Fatal(err)
					}
					m2, err := OpenManager(d.MemDisk)
					if err != nil {
						t.Fatalf("cut at step %d, subset %b of %v: reopen: %v", cutAt, mask, pending, err)
					}
					what := fmt.Sprintf("cut at step %d, subset %b of %v", cutAt, mask, pending)
					if m2.committed[inflight[0]] || finished {
						wantCommitted(t, m2, what, acked, inflight)
					} else {
						wantCommitted(t, m2, what, acked)
					}
					if got, last := m2.Begin().XID(), inflight[len(inflight)-1]; got <= last {
						t.Fatalf("%s: XID %d handed out again (%d was)", what, got, last)
					}
				}
				if finished {
					break
				}
			}
			t.Logf("%d crash images", cases)
		})
	}
	// Two batches that overlap: B forces while A's append is held before one
	// of its device calls. Both force a data page on the status device, so
	// B's sync also makes whatever A has written durable. A fits its tail
	// page, or fills it exactly and writes its successor first.
	for _, sh := range []struct {
		name    string
		prefill int
	}{
		{"overlap, A fits", xidsPerPage - 10},
		{"overlap, A fills exactly", xidsPerPage - 2},
	} {
		t.Run(sh.name, func(t *testing.T) {
			cases := 0
			for holdAt := 3; ; holdAt++ { // calls 1 and 2 are A's force
				held := false
				for cutAt := 1; ; cutAt++ {
					finished := false
					for mask := uint64(0); ; mask++ {
						run := overlapRun(t, sh.prefill, holdAt, cutAt)
						held, finished = run.held, run.finished
						if mask >= 1<<len(run.pending) {
							break
						}
						cases++
						run.crash(t, mask)
					}
					if finished {
						break
					}
				}
				if !held {
					break
				}
			}
			t.Logf("%d crash images", cases)
		})
	}
}

// pageSyncer is a transaction's storage: one data page on d, written and
// synced. done, if set, is closed when Sync returns.
type pageSyncer struct {
	d    storage.Disk
	no   storage.PageNo
	done chan struct{}
}

func (s *pageSyncer) Sync() error {
	if s.done != nil {
		defer close(s.done)
	}
	if err := s.d.WritePage(s.no, page.New()); err != nil {
		return err
	}
	return s.d.Sync()
}

// holdCutDisk is a cutDisk that, once armed, holds its holdAt-th call until
// release closes, closing arrived when that call gets there.
type holdCutDisk struct {
	*cutDisk
	holdAt, calls    int
	arrived, release chan struct{}
}

func (d *holdCutDisk) hold() {
	if d.armed {
		if d.calls++; d.calls == d.holdAt {
			close(d.arrived)
			<-d.release
		}
	}
}

func (d *holdCutDisk) WritePage(no storage.PageNo, data page.Page) error {
	d.hold()
	return d.cutDisk.WritePage(no, data)
}

func (d *holdCutDisk) Sync() error {
	d.hold()
	return d.cutDisk.Sync()
}

// overlapResult is one run of overlapRun, before the crash.
type overlapResult struct {
	d              *storage.MemDisk
	acked          []heap.XID // the prefill
	a, b           heap.XID
	aOK, bOK       bool // the commits that returned nil
	held, finished bool // A's append reached holdAt; no call was cut
	pending        []storage.PageNo
	what           string
}

// overlapRun commits A, holds the holdAt-th device call (of A's append) until
// B's force has returned, then lets both finish, cutting the power at the
// cutAt-th call. The order of the device calls is fixed: A's force, A's
// append up to the hold, B's force, the rest of A's append, B's append.
func overlapRun(t *testing.T, prefill, holdAt, cutAt int) overlapResult {
	t.Helper()
	mem := storage.NewMemDisk()
	d := &holdCutDisk{cutDisk: &cutDisk{MemDisk: mem, cutAt: cutAt}, holdAt: holdAt,
		arrived: make(chan struct{}), release: make(chan struct{})}
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	r := overlapResult{d: mem, acked: beginRun(m, prefill)}
	if err := m.appendStatus(r.acked); err != nil {
		t.Fatal(err)
	}
	txA, txB := m.Begin(), m.Begin()
	r.a, r.b = txA.XID(), txB.XID()
	bForced := make(chan struct{})
	txA.Touch(&pageSyncer{d: d, no: 50})
	txB.Touch(&pageSyncer{d: d, no: 51, done: bForced})

	d.armed = true
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { errA <- txA.Commit() }()
	var aErr error
	select {
	case <-d.arrived:
		r.held = true
		go func() { errB <- txB.Commit() }()
		<-bForced
		close(d.release)
		aErr = <-errA
	case aErr = <-errA: // cut before the hold: B commits after A
		d.holdAt = 0
		go func() { errB <- txB.Commit() }()
	}
	bErr := <-errB
	r.aOK, r.bOK = aErr == nil, bErr == nil
	r.finished = d.step < cutAt
	r.pending = mem.PendingPages()
	r.what = fmt.Sprintf("hold at call %d, cut at call %d", holdAt, cutAt)
	return r
}

// crash keeps the mask subset of the pending pages, reopens, and checks that
// the committed set is the prefill plus a prefix of A, B — in ticket order —
// that holds every acknowledged batch.
func (r overlapResult) crash(t *testing.T, mask uint64) {
	t.Helper()
	what := fmt.Sprintf("%s, subset %b of %v", r.what, mask, r.pending)
	if err := r.d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManager(r.d)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	a, b := m.committed[r.a], m.committed[r.b]
	switch {
	case b && !a:
		t.Fatalf("%s: B committed without A", what)
	case r.aOK && !a, r.bOK && !b:
		t.Fatalf("%s: an acknowledged batch lost (A %v/%v, B %v/%v)", what, r.aOK, a, r.bOK, b)
	}
	var batches [][]heap.XID
	if a {
		batches = append(batches, []heap.XID{r.a})
	}
	if b {
		batches = append(batches, []heap.XID{r.b})
	}
	wantCommitted(t, m, what, append([][]heap.XID{r.acked}, batches...)...)
	if got := m.Begin().XID(); got <= r.b {
		t.Fatalf("%s: XID %d handed out again (%d was)", what, got, r.b)
	}
}

// TestStaleSuccessorNeverRead is hazard (a): a crossing batch that fails, or
// dies, after its successor page is durable leaves entries on page k+1 that
// nothing covers. A later batch that fills page k exactly must not let
// recovery walk into them.
func TestStaleSuccessorNeverRead(t *testing.T) {
	for _, how := range []string{"failed", "crashed"} {
		t.Run(how, func(t *testing.T) {
			d := &cutDisk{MemDisk: storage.NewMemDisk()}
			m, err := OpenManager(d)
			if err != nil {
				t.Fatal(err)
			}
			next := heap.XID(2)
			acked := xidRun(&next, xidsPerPage-11) // ten slots left on page 0
			if err := m.appendStatus(acked); err != nil {
				t.Fatal(err)
			}
			// The crossing batch: successor write, sync, then the tail
			// write is the third device call — it never happens.
			dead := xidRun(&next, 25)
			d.armed, d.cutAt = true, 3
			if err := m.appendStatus(dead); !errors.Is(err, errPowerCut) {
				t.Fatalf("crossing append: %v", err)
			}
			d.armed = false
			if how == "crashed" {
				if err := d.CrashPartial(storage.CrashAll); err != nil {
					t.Fatal(err)
				}
				if m, err = OpenManager(d); err != nil {
					t.Fatal(err)
				}
				wantCommitted(t, m, "after the crashed crossing", acked)
			}
			exact := xidRun(&next, 10)
			if err := m.appendStatus(exact); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashPartial(storage.CrashNone); err != nil {
				t.Fatal(err)
			}
			m2, err := OpenManager(d)
			if err != nil {
				t.Fatal(err)
			}
			wantCommitted(t, m2, "after the page filled exactly", acked, exact)
			if m2.tailNo != 1 || statusCount(m2.tail) != 0 {
				t.Fatalf("tail is page %d with %d entries, want the empty page 1", m2.tailNo, statusCount(m2.tail))
			}
		})
	}
}

// TestStatusFormatErrors is hazard (b): OpenManager reads the device raw, so
// a count no page can hold, a layout version it does not know, the retired
// page-0-directory layout, a page that fails its checksum and a zeroed page 0
// with pages after it are typed errors, not panics and not lost commits.
func TestStatusFormatErrors(t *testing.T) {
	fresh := func() *storage.MemDisk {
		d := storage.NewMemDisk()
		if _, err := OpenManager(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	plant := func(d *storage.MemDisk, mutate func(p page.Page)) {
		p := page.New()
		if err := d.ReadPage(0, p); err != nil {
			t.Fatal(err)
		}
		mutate(p)
		if err := d.WritePage(0, p); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(p page.Page){
		"oversized count": func(p page.Page) { le.PutUint32(p[offCount:], xidsPerPage+1) },
		"huge count":      func(p page.Page) { le.PutUint32(p[offCount:], 1<<31) },
		"unknown version": func(p page.Page) { le.PutUint32(p[offVersion:], statusVersion+1) },
		"old layout": func(p page.Page) { // nextXID u64 | count u64 | xid u64 ...
			le.PutUint64(p[page.HeaderSize:], 3)
			le.PutUint64(p[page.HeaderSize+8:], 2)
			le.PutUint64(p[page.HeaderSize+16:], 1)
			le.PutUint64(p[page.HeaderSize+24:], 2)
		},
	}
	for name, mutate := range cases {
		d := fresh()
		plant(d, mutate)
		if _, err := OpenManager(d); !errors.Is(err, ErrStatusFormat) {
			t.Errorf("%s: OpenManager returned %v, want ErrStatusFormat", name, err)
		}
	}
	// A page that fails its checksum is damage, not data: one flipped entry
	// byte drops a committed XID, or names one that never committed.
	d := fresh()
	d.CorruptStable(0, func(p page.Page) { p[offEntries] ^= 1 })
	if _, err := OpenManager(d); !errors.Is(err, ErrStatusFormat) {
		t.Errorf("flipped entry byte: OpenManager returned %v, want ErrStatusFormat", err)
	}
	// A zeroed page 0 ahead of further pages is a lost table, not a new one.
	d = fresh()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	next := heap.XID(2)
	if err := m.appendStatus(xidRun(&next, xidsPerPage)); err != nil {
		t.Fatal(err)
	}
	d.CorruptStable(0, func(p page.Page) { clear(p) })
	if _, err := OpenManager(d); !errors.Is(err, ErrStatusFormat) {
		t.Errorf("zeroed page 0 of %d: OpenManager returned %v, want ErrStatusFormat", d.NumPages(), err)
	}
	// A page past the tail is never read for its contents: damage there
	// cannot fail an open.
	d = fresh()
	junk := newStatusPage(0)
	le.PutUint32(junk[offCount:], 1<<20)
	if err := d.WritePage(1, junk); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManager(d); err != nil {
		t.Errorf("junk past the tail page: %v", err)
	}
}

// --- open budget ---------------------------------------------------------

// gatedReads holds every ReadPage at the device until the test lets it go.
type gatedReads struct {
	storage.Disk
	arrived chan storage.PageNo
	release chan struct{}
}

func (d *gatedReads) ReadPage(no storage.PageNo, buf page.Page) error {
	d.arrived <- no
	<-d.release
	return d.Disk.ReadPage(no, buf)
}

// TestOpenReadsStatusPagesInWaves: the status table is read
// buffer.MaxForceDepth pages at a time — a 12-page table in one wave, a
// 70-page one in two — not one serial wait per page.
func TestOpenReadsStatusPagesInWaves(t *testing.T) {
	for _, c := range []struct{ pages, waves int }{{12, 1}, {70, 2}} {
		t.Run(fmt.Sprint(c.pages, "pages"), func(t *testing.T) {
			mem := storage.NewMemDisk()
			m, err := OpenManager(mem)
			if err != nil {
				t.Fatal(err)
			}
			next := heap.XID(2)
			all := xidRun(&next, (c.pages-1)*xidsPerPage+7)
			if err := m.appendStatus(all); err != nil {
				t.Fatal(err)
			}
			if n := int(mem.NumPages()); n != c.pages {
				t.Fatalf("table has %d pages, want %d", n, c.pages)
			}

			d := &gatedReads{Disk: mem, arrived: make(chan storage.PageNo), release: make(chan struct{})}
			opened := make(chan *Manager, 1)
			go func() {
				m2, err := OpenManager(d)
				if err != nil {
					t.Error(err)
				}
				opened <- m2
			}()
			waves := 0
			for left := c.pages; left > 0; waves++ {
				wave := min(left, buffer.MaxForceDepth)
				for i := 0; i < wave; i++ {
					select {
					case <-d.arrived:
					case <-time.After(10 * time.Second):
						t.Fatalf("%d reads in flight with %d pages left, want %d", i, left, wave)
					}
				}
				select {
				case <-d.arrived:
					t.Fatalf("more than %d reads in flight", wave)
				case <-time.After(20 * time.Millisecond):
				}
				for i := 0; i < wave; i++ {
					d.release <- struct{}{}
				}
				left -= wave
			}
			if waves != c.waves {
				t.Fatalf("%d pages took %d waves of reads, want %d", c.pages, waves, c.waves)
			}
			m2 := <-opened
			if m2 == nil {
				t.FailNow()
			}
			wantCommitted(t, m2, "after the gated open", all)
		})
	}
}

// --- the XID ceiling -----------------------------------------------------

// TestXIDNotReusedAfterCrash is benchmark known failure #3 at this layer: a
// transaction begins AFTER the last commit, its heap page reaches the disk
// (the flush daemon), the machine dies. The first transaction after the
// restart must not inherit its XID — its commit would make the dead tuple
// visible.
func TestXIDNotReusedAfterCrash(t *testing.T) {
	ctl, relDisk := storage.NewMemDisk(), storage.NewMemDisk()
	m, err := OpenManager(ctl)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := heap.Open(relDisk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	dead := m.Begin() // after the last commit
	tid, err := rel.Insert(dead.XID(), []byte("never committed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Sync(); err != nil { // what the daemon does
		t.Fatal(err)
	}
	for _, d := range []*storage.MemDisk{ctl, relDisk} {
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := OpenManager(ctl)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := heap.Open(relDisk, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := m2.Begin()
	if tx.XID() <= dead.XID() {
		t.Errorf("XID %d handed out again after the crash (the dead transaction had %d)", tx.XID(), dead.XID())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, err := rel2.Fetch(tid, m2); err == nil {
		t.Fatalf("dead transaction's tuple %q is visible after the restart", data)
	}
}

// TestCeilingCostsACommitNothing: the ceiling rides on the page a commit
// writes anyway. Commits never add a write for it; only a run of xidChunk
// BEGINs with no commit among them, or the first BEGIN after a restart,
// writes the tail page — once — and no Begin is ever at or above what the
// device holds.
func TestCeilingCostsACommitNothing(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	durableCeiling := func() heap.XID {
		m2, err := OpenManager(d.CloneStable())
		if err != nil {
			t.Fatal(err)
		}
		return m2.ceiling
	}
	writes0, syncs0, _ := d.Stats()
	const commits = 3 * xidChunk
	for i := 0; i < commits; i++ {
		tx := m.Begin()
		if i%97 == 0 && tx.XID() >= durableCeiling() {
			t.Fatalf("XID %d handed out at or above the durable ceiling", tx.XID())
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	writes1, syncs1, _ := d.Stats()
	crossings := (1 + commits) / xidsPerPage // each costs one successor write and one more sync
	if w, s := writes1-writes0, syncs1-syncs0; w != commits+crossings || s != commits+crossings {
		t.Fatalf("%d commits (%d filled a page) cost %d writes and %d syncs", commits, crossings, w, s)
	}

	for i := 0; i < 2*xidChunk+10; i++ {
		if tx := m.Begin(); i%97 == 0 && tx.XID() >= durableCeiling() {
			t.Fatalf("XID %d handed out at or above the durable ceiling", tx.XID())
		}
	}
	writes2, _, _ := d.Stats()
	if got := writes2 - writes1; got != 2 {
		t.Fatalf("%d BEGINs with no commit wrote the status file %d times, want 2", 2*xidChunk+10, got)
	}

	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	writes3, _, _ := d.Stats()
	var wg sync.WaitGroup
	var top atomic.Uint64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(m2.Begin().XID())
			for old := top.Load(); x > old && !top.CompareAndSwap(old, x); old = top.Load() {
			}
		}()
	}
	wg.Wait()
	writes4, _, _ := d.Stats()
	if writes3 != writes2 || writes4-writes3 != 1 {
		t.Fatalf("reopen wrote %d pages, its first 16 concurrent BEGINs %d; want 0 and 1", writes3-writes2, writes4-writes3)
	}
	if c := durableCeiling(); heap.XID(top.Load()) >= c {
		t.Fatalf("XID %d handed out at or above the durable ceiling %d", top.Load(), c)
	}
}

// TestBeginReserveFailure: a Begin that cannot raise the ceiling returns a
// transaction that is already failed — Err says why and Commit aborts it at
// stage "begin" — and the manager recovers with the device.
func TestBeginReserveFailure(t *testing.T) {
	d := &syncFailDisk{Disk: storage.NewMemDisk()}
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < xidChunk; i++ {
		if tx := m.Begin(); tx.Err() != nil {
			t.Fatalf("BEGIN %d under the ceiling: %v", i, tx.Err())
		}
	}
	devErr := errors.New("status device on fire")
	d.arm(devErr)
	tx := m.Begin()
	if !errors.Is(tx.Err(), devErr) {
		t.Fatalf("Err = %v", tx.Err())
	}
	var ce *CommitError
	if err := tx.Commit(); !errors.As(err, &ce) || ce.Stage != "begin" || !errors.Is(err, devErr) {
		t.Fatalf("Commit = %v", err)
	}
	if m.Committed(tx.XID()) {
		t.Fatal("failed transaction is visible")
	}
	d.arm(nil)
	tx2 := m.Begin()
	if tx2.Err() != nil {
		t.Fatalf("BEGIN after the device healed: %v", tx2.Err())
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitTimers: every committer is timed in the queue, every batch in
// its force and its status append, and the appends that needed the
// two-phase write are counted.
func TestCommitTimers(t *testing.T) {
	m, _ := newMgr(t)
	rec := obs.New(0)
	m.SetObs(rec)
	commits := xidsPerPage + 3 // fills page 0 once
	for i := 0; i < commits; i++ {
		tx := m.Begin()
		tx.Touch(&countingSyncer{})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	timers := rec.Snapshot().Timers
	for _, name := range []string{"commit.queue", "commit.force", "commit.turn", "commit.status", "commit.latency"} {
		if got := timers[name].Count; got != uint64(commits) {
			t.Errorf("%s observed %d times, want %d", name, got, commits)
		}
	}
	if got := rec.Get(obs.CommitTwoPhase); got != 1 {
		t.Errorf("%d two-phase appends counted, want 1", got)
	}
}
