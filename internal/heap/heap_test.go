package heap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// fakeStatus marks a fixed set of XIDs committed.
type fakeStatus map[XID]bool

func (f fakeStatus) Committed(x XID) bool { return f[x] }

// Aborted reports no transaction running: an XID fakeStatus does not mark
// committed aborted.
func (f fakeStatus) Aborted(x XID) bool { return !f[x] }

func newRel(t *testing.T) (*Relation, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	r, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, d
}

func TestTIDRoundTrip(t *testing.T) {
	tid := TID{PageNo: 0xDEADBEEF, Slot: 0xCAFE}
	got, err := ParseTID(tid.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != tid {
		t.Fatalf("round trip: %v != %v", got, tid)
	}
	if _, err := ParseTID([]byte{1, 2, 3}); err == nil {
		t.Fatal("short TID must be rejected")
	}
	if s := tid.String(); s != "(3735928559,51966)" {
		t.Fatalf("String = %q", s)
	}
}

func TestInsertFetchVisible(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true}
	tid, err := r.Insert(5, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Fetch(tid, status)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("Fetch = %q", data)
	}
}

// TestFetchAppend: a visible tuple is appended after the bytes already in
// dst; an invisible one and a missing one leave dst as it was; and the
// result is a copy, not a view of the buffer frame.
func TestFetchAppend(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true}
	tid, err := r.Insert(5, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := r.Insert(9, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "row:"...)
	got, err := r.FetchAppend(dst, tid, status)
	if err != nil || string(got) != "row:hello" {
		t.Fatalf("FetchAppend = %q, %v; want \"row:hello\"", got, err)
	}
	for _, missing := range []TID{ghost, {PageNo: tid.PageNo, Slot: 99}, {PageNo: 40, Slot: 0}} {
		out, err := r.FetchAppend(got, missing, status)
		if !errors.Is(err, ErrNoSuchTuple) || string(out) != "row:hello" || len(out) != len(got) {
			t.Fatalf("FetchAppend %v = %q, %v; want dst unchanged and ErrNoSuchTuple", missing, out, err)
		}
	}
	copy(got[4:], "XXXXX")
	if again, err := r.Fetch(tid, status); err != nil || string(again) != "hello" {
		t.Fatalf("Fetch after writing to FetchAppend's result = %q, %v; it aliased the frame", again, err)
	}
}

func TestUncommittedTupleInvisible(t *testing.T) {
	r, _ := newRel(t)
	tid, err := r.Insert(9, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	// XID 9 never committed: the tuple is one of the "records pointed to
	// by invalid keys" the storage system detects and ignores (§2).
	if _, err := r.Fetch(tid, fakeStatus{}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("uncommitted tuple visible: %v", err)
	}
}

func TestDeleteVisibility(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true}
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 6, status); err != nil {
		t.Fatal(err)
	}
	// Deleter not committed: still visible.
	if _, err := r.Fetch(tid, status); err != nil {
		t.Fatalf("tuple with uncommitted deleter must stay visible: %v", err)
	}
	// Deleter commits: invisible.
	status[6] = true
	if _, err := r.Fetch(tid, status); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("deleted tuple visible: %v", err)
	}
	// Double delete fails.
	if err := r.Delete(tid, 7, status); err == nil {
		t.Fatal("double delete must fail")
	}
}

// liveStatus is fakeStatus with one transaction running.
type liveStatus struct {
	fakeStatus
	live XID
}

func (s liveStatus) Aborted(x XID) bool { return x != s.live && s.fakeStatus.Aborted(x) }

// TestDeleteReplacesAbortedXmax: an xmax whose transaction aborted or died
// is replaced by the next deleter, since the version is current again; one
// whose transaction is live or committed is not.
func TestDeleteReplacesAbortedXmax(t *testing.T) {
	r, _ := newRel(t)
	status := liveStatus{fakeStatus{5: true}, 7}
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 6, status); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 7, status); err != nil {
		t.Fatalf("xmax of aborted txn 6 not replaced: %v", err)
	}
	if err := r.Delete(tid, 8, status); err == nil {
		t.Fatal("xmax of live txn 7 replaced")
	}
	status.live, status.fakeStatus[7] = 0, true
	if _, err := r.Update(tid, 9, []byte("y"), status); err == nil {
		t.Fatal("xmax of committed txn 7 replaced")
	}
	if _, xmax, err := r.Header(tid); err != nil || xmax != 7 {
		t.Fatalf("xmax = %d, %v; want 7", xmax, err)
	}
}

// TestAlreadyDeletedIsTyped: a delete or update of a version another live or
// committed transaction deleted first fails with ErrAlreadyDeleted, and the
// message names the tuple and that transaction.
func TestAlreadyDeletedIsTyped(t *testing.T) {
	r, _ := newRel(t)
	status := liveStatus{fakeStatus{5: true}, 6}
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 6, status); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("heap: tuple %v already deleted by txn 6", tid)
	err = r.Delete(tid, 7, status)
	if !errors.Is(err, ErrAlreadyDeleted) || err.Error() != want {
		t.Fatalf("Delete of a live txn's deletion: %v, want ErrAlreadyDeleted reading %q", err, want)
	}
	status.live, status.fakeStatus[6] = 0, true
	if _, err := r.Update(tid, 8, []byte("y"), status); !errors.Is(err, ErrAlreadyDeleted) || err.Error() != want {
		t.Fatalf("Update of a committed deletion: %v, want ErrAlreadyDeleted reading %q", err, want)
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true, 6: true}
	tid1, err := r.Insert(5, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	tid2, err := r.Update(tid1, 6, []byte("v2"), status)
	if err != nil {
		t.Fatal(err)
	}
	if tid1 == tid2 {
		t.Fatal("update must not overwrite in place")
	}
	if _, err := r.Fetch(tid1, status); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("old version must be invisible to current reads")
	}
	data, err := r.Fetch(tid2, status)
	if err != nil || !bytes.Equal(data, []byte("v2")) {
		t.Fatalf("new version: %q, %v", data, err)
	}
}

func TestTimeTravelFetchAsOf(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true, 8: true}
	tid1, err := r.Insert(5, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	tid2, err := r.Update(tid1, 8, []byte("v2"), status)
	if err != nil {
		t.Fatal(err)
	}
	// As of XID 6 (after 5 committed, before 8), v1 was current.
	data, err := r.FetchAsOf(tid1, status, 6)
	if err != nil || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("historical fetch: %q, %v", data, err)
	}
	// v2 did not exist yet as of 6.
	if _, err := r.FetchAsOf(tid2, status, 6); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("future version visible in the past")
	}
	// As of 8, v1 is deleted and v2 current.
	if _, err := r.FetchAsOf(tid1, status, 8); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("deleted version visible after deleter committed")
	}
	if _, err := r.FetchAsOf(tid2, status, 8); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderAndScanAll(t *testing.T) {
	r, _ := newRel(t)
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 7, fakeStatus{}); err != nil {
		t.Fatal(err)
	}
	xmin, xmax, err := r.Header(tid)
	if err != nil || xmin != 5 || xmax != 7 {
		t.Fatalf("Header = %d,%d,%v", xmin, xmax, err)
	}
	count := 0
	err = r.ScanAll(func(got TID, mn, mx XID, data []byte) bool {
		count++
		if got != tid || mn != 5 || mx != 7 || string(data) != "x" {
			t.Fatalf("ScanAll got %v %d %d %q", got, mn, mx, data)
		}
		return true
	})
	if err != nil || count != 1 {
		t.Fatalf("ScanAll count=%d err=%v", count, err)
	}
}

func TestMultiPageGrowth(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{1: true}
	var tids []TID
	payload := bytes.Repeat([]byte{'p'}, 500)
	for i := 0; i < 100; i++ {
		tid, err := r.Insert(1, append(payload, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if r.NumPages() < 5 {
		t.Fatalf("expected multi-page relation, got %d pages", r.NumPages())
	}
	for i, tid := range tids {
		data, err := r.Fetch(tid, status)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if data[len(data)-1] != byte(i) {
			t.Fatalf("tuple %d corrupted", i)
		}
	}
}

func TestCrashLosesUnsyncedTuples(t *testing.T) {
	d := storage.NewMemDisk()
	r, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	status := fakeStatus{1: true}
	tid1, err := r.Insert(1, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(1, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	// Crash without sync: the second tuple is gone, the first survives.
	if err := r.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r2.Fetch(tid1, status)
	if err != nil || !bytes.Equal(data, []byte("durable")) {
		t.Fatalf("synced tuple lost: %q, %v", data, err)
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	r, _ := newRel(t)
	if _, err := r.Insert(1, bytes.Repeat([]byte{1}, 10000)); err == nil {
		t.Fatal("oversized tuple must be rejected")
	}
}

func TestFetchBadTID(t *testing.T) {
	r, _ := newRel(t)
	if _, err := r.Fetch(TID{PageNo: 99, Slot: 0}, fakeStatus{}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("fetch past EOF: %v", err)
	}
	tid, err := r.Insert(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := TID{PageNo: tid.PageNo, Slot: 42}
	if _, err := r.Fetch(bad, fakeStatus{1: true}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("fetch bad slot: %v", err)
	}
}

func ExampleTID_Bytes() {
	tid := TID{PageNo: 7, Slot: 3}
	parsed, _ := ParseTID(tid.Bytes())
	fmt.Println(parsed)
	// Output: (7,3)
}
