package txn

import (
	"errors"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

func newMgr(t *testing.T) (*Manager, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestBootstrapXIDCommitted(t *testing.T) {
	m, _ := newMgr(t)
	if !m.Committed(1) {
		t.Fatal("bootstrap XID must be committed")
	}
	if m.Committed(2) {
		t.Fatal("unused XID must not be committed")
	}
}

func TestBeginAssignsIncreasingXIDs(t *testing.T) {
	m, _ := newMgr(t)
	t1, t2 := m.Begin(), m.Begin()
	if t1.XID() >= t2.XID() {
		t.Fatalf("XIDs not increasing: %d, %d", t1.XID(), t2.XID())
	}
}

func TestCommitMakesVisible(t *testing.T) {
	m, _ := newMgr(t)
	tx := m.Begin()
	if m.Committed(tx.XID()) || m.Aborted(tx.XID()) {
		t.Fatal("active txn must read as neither committed nor aborted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !m.Committed(tx.XID()) || m.Aborted(tx.XID()) {
		t.Fatal("committed txn must read as committed, not aborted")
	}
}

// TestCommittedXmaxNeverReplaced: a deleter's xmax cannot be replaced at any
// point of its commit — not while its batch waits to append, not between the
// append that publishes it committed and its leaving the active set, and not
// after. Each step tries a Delete by another transaction and finds the xmax
// still the committer's.
func TestCommittedXmaxNeverReplaced(t *testing.T) {
	m, _ := newMgr(t)
	rel, err := heap.Open(storage.NewMemDisk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := rel.Insert(1, []byte("v1")) // the bootstrap transaction's
	if err != nil {
		t.Fatal(err)
	}
	deleter := m.Begin()
	if err := rel.Delete(tid, deleter.XID(), m); err != nil {
		t.Fatal(err)
	}
	tryReplace := func(when string) {
		other := m.Begin()
		if err := rel.Delete(tid, other.XID(), m); err == nil {
			t.Errorf("%s: xmax of txn %d replaced by txn %d", when, deleter.XID(), other.XID())
		}
		other.Abort()
		if _, xmax, err := rel.Header(tid); err != nil || xmax != deleter.XID() {
			t.Errorf("%s: xmax = %d, %v; want %d", when, xmax, err, deleter.XID())
		}
	}
	tryReplace("running")
	m.hookAfterForce = func([]heap.XID) { tryReplace("forced, not appended") }
	m.hookAfterAppend = func() {
		if !m.Committed(deleter.XID()) {
			t.Error("hook ran before the batch was published committed")
		}
		tryReplace("committed, still active")
	}
	if err := deleter.Commit(); err != nil {
		t.Fatal(err)
	}
	m.hookAfterForce, m.hookAfterAppend = nil, nil
	tryReplace("committed")
}

func TestAbortStaysInvisible(t *testing.T) {
	m, _ := newMgr(t)
	tx := m.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.Committed(tx.XID()) || !m.Aborted(tx.XID()) {
		t.Fatal("aborted txn must read as aborted, not committed")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestDoubleCommit(t *testing.T) {
	m, _ := newMgr(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double commit: %v", err)
	}
}

// countingSyncer records how often it was forced.
type countingSyncer struct{ n int }

func (c *countingSyncer) Sync() error { c.n++; return nil }

func TestCommitForcesTouchedStorage(t *testing.T) {
	m, _ := newMgr(t)
	tx := m.Begin()
	var a, b countingSyncer
	tx.Touch(&a)
	tx.Touch(&b)
	tx.Touch(&a) // duplicate registration is idempotent
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.n != 1 || b.n != 1 {
		t.Fatalf("sync counts %d/%d, want 1/1", a.n, b.n)
	}
}

func TestStatusSurvivesRestart(t *testing.T) {
	m, d := newMgr(t)
	tx1 := m.Begin()
	tx2 := m.Begin()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = tx2 // never commits

	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Committed(tx1.XID()) {
		t.Fatal("committed XID lost across restart")
	}
	if m2.Committed(tx2.XID()) {
		t.Fatal("in-flight XID resurrected as committed")
	}
	// XIDs never repeat across restarts.
	tx3 := m2.Begin()
	if tx3.XID() <= tx2.XID() {
		t.Fatalf("XID %d reused after restart (had %d)", tx3.XID(), tx2.XID())
	}
}

func TestCrashForgetsInFlight(t *testing.T) {
	// The whole point of the no-log design: a crash needs no undo. The
	// status table simply lacks the dead transaction's XID.
	m, d := newMgr(t)
	tx := m.Begin()
	// No commit; the crash discards any buffered status writes.
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Committed(tx.XID()) {
		t.Fatal("crashed txn must be invisible")
	}
}

func TestCommitDurableAgainstCrash(t *testing.T) {
	m, d := newMgr(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit persisted with its own sync: a crash right after keeps it.
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Committed(tx.XID()) {
		t.Fatal("committed XID lost in post-commit crash")
	}
}

func TestManyCommitsSpillPages(t *testing.T) {
	m, d := newMgr(t)
	var xids []heap.XID
	for i := 0; i < 2100; i++ { // > one page of u64 XIDs
		tx := m.Begin()
		xids = append(xids, tx.XID())
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xids {
		if !m2.Committed(x) {
			t.Fatalf("XID %d lost in spilled status table", x)
		}
	}
}

func TestHighestCommitted(t *testing.T) {
	m, _ := newMgr(t)
	if m.HighestCommitted() != 1 {
		t.Fatalf("HighestCommitted = %d", m.HighestCommitted())
	}
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.HighestCommitted() != tx.XID() {
		t.Fatalf("HighestCommitted = %d, want %d", m.HighestCommitted(), tx.XID())
	}
}

func TestEndToEndVisibilityWithHeap(t *testing.T) {
	mgrDisk := storage.NewMemDisk()
	relDisk := storage.NewMemDisk()
	m, err := OpenManager(mgrDisk)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := heap.Open(relDisk, 0)
	if err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	tx.Touch(rel)
	tid, err := rel.Insert(tx.XID(), []byte("row"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Fetch(tid, m); err == nil {
		t.Fatal("tuple visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Fetch(tid, m); err != nil {
		t.Fatalf("tuple invisible after commit: %v", err)
	}
}
