package wal

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
)

func newIdx(t testing.TB, v btree.Variant) *btree.Tree {
	t.Helper()
	tr, err := btree.Open(storage.NewMemDisk(), v, btree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

func TestLogAccounting(t *testing.T) {
	l := NewLog()
	lsn1 := l.Append(Record{Type: RecInsert, Key: []byte("k"), Value: []byte("v")})
	lsn2 := l.Append(Record{Type: RecCommit})
	if lsn2 != lsn1+1 {
		t.Fatalf("LSNs not sequential: %d, %d", lsn1, lsn2)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Bytes() <= 0 {
		t.Fatal("byte accounting missing")
	}
	recs := l.Records()
	if recs[0].LSN != lsn1 || string(recs[0].Key) != "k" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestEncodeRecordSizeMatchesAccounting(t *testing.T) {
	r := Record{LSN: 7, Type: RecInsert, Key: []byte("abc"), Value: []byte("defg")}
	if got, want := len(EncodeRecord(r)), r.encodedSize(); got != want {
		t.Fatalf("encoded %d bytes, accounted %d", got, want)
	}
}

// TestLogicalLogSmallerOnSplitHeavyWorkload is the §4 claim: logical
// logging writes no split records, so on a split-heavy insert workload its
// log is a small fraction of the physical one.
func TestLogicalLogSmallerOnSplitHeavyWorkload(t *testing.T) {
	const n = 5000
	phys := NewManager(Physical, newIdx(t, btree.Normal), 400)
	logi := NewManager(Logical, newIdx(t, btree.Shadow), 400)
	for i := 0; i < n; i++ {
		if err := phys.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := logi.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pb, lb := phys.Log().Bytes(), logi.Log().Bytes()
	if pb <= lb {
		t.Fatalf("physical log (%d B) should exceed logical log (%d B)", pb, lb)
	}
	ratio := float64(pb) / float64(lb)
	if ratio < 1.5 {
		t.Fatalf("expected a clearly more compact logical log; ratio %.2f", ratio)
	}
	t.Logf("physical %d B, logical %d B, ratio %.1fx", pb, lb, ratio)
}

func TestLogicalRecoveryReplaysOperations(t *testing.T) {
	m := NewManager(Logical, newIdx(t, btree.Shadow), 400)
	for i := 0; i < 1000; i++ {
		if err := m.Insert(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 3 {
		if err := m.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit()

	fresh := newIdx(t, btree.Shadow)
	if err := Recover(m.Log(), fresh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, err := fresh.Lookup(key(i))
		if i%3 == 0 && err == nil {
			t.Fatalf("deleted key %d resurrected by replay", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("key %d lost in replay: %v", i, err)
		}
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	m := NewManager(Logical, newIdx(t, btree.Reorg), 400)
	for i := 0; i < 100; i++ {
		if err := m.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fresh := newIdx(t, btree.Reorg)
	// Pre-populate some keys: replay must detect and skip them
	// ("Recovery-time insertion of a second key which points to the same
	// record is detected and prevented", §4).
	for i := 0; i < 50; i++ {
		if err := fresh.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := Recover(m.Log(), fresh); err != nil {
		t.Fatal(err)
	}
	n, err := fresh.Count()
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestCorruptionContainment demonstrates the §4 fault-tolerance claim:
// physical logging copies index bytes into the log, so a corrupted key is
// faithfully restored at recovery; logical logging never copies from the
// index, so recovery regenerates clean keys.
func TestCorruptionContainment(t *testing.T) {
	// A corrupted-key marker stands in for a software error flipping
	// bits in an internal page before the keys are logged.
	corrupt := []byte("CORRUPTED")

	// Physical discipline: the corrupted bytes enter the log...
	physLog := NewLog()
	physLog.Append(Record{Type: RecSplitMove, Key: corrupt, FromPage: 1, ToPage: 2})
	sawCorrupt := false
	for _, r := range physLog.Records() {
		if string(r.Key) == string(corrupt) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("physical log should contain the corrupted key bytes")
	}

	// Logical discipline on the same events: the log holds only the
	// original user-level operation, so the corruption cannot survive a
	// rebuild.
	m := NewManager(Logical, newIdx(t, btree.Shadow), 400)
	if err := m.Insert([]byte("clean-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Log().Records() {
		if string(r.Key) == string(corrupt) {
			t.Fatal("logical log must never contain index-internal bytes")
		}
	}
	fresh := newIdx(t, btree.Shadow)
	if err := Recover(m.Log(), fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Lookup([]byte("clean-key")); err != nil {
		t.Fatal("logical recovery lost the clean key")
	}
}

func TestModeString(t *testing.T) {
	if Physical.String() != "physical" || Logical.String() != "logical" {
		t.Fatal("mode names")
	}
}
