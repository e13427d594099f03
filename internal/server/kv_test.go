package server

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestScanLimitKeepsNewestVersion: a SCAN whose result set is full still
// reaches a later entry of its largest key, past the entries of a longer key
// that sort among that key's own. Key "a" gets two visible versions (two
// transactions insert it, neither seeing the other), on heap pages 1 and >= 3;
// the entries of "a\x02" sort between them. SCAN a b 1 must answer the newer
// version, as GET does: ending the scan at the first entry whose every prefix
// sorts at or past "a" would answer the older.
func TestScanLimitKeepsNewestVersion(t *testing.T) {
	db, srv, _ := openKV(t, core.Memory(), 0)
	defer db.Close()
	kv := srv.KV()
	put := func(tx *core.Txn, key, val string) {
		t.Helper()
		if err := kv.WithTxn(tx, func(tx *core.Txn) error { return kv.Put(tx, []byte(key), []byte(val)) }); err != nil {
			t.Fatal(err)
		}
	}
	older, newer := db.Begin(), db.Begin()
	put(older, "a", "old")
	put(nil, "a\x02", "ext")
	for i := 0; ; i++ { // fill heap pages 1 and 2
		key := fmt.Sprintf("z%03d", i)
		put(nil, key, strings.Repeat("p", 2000))
		if tid, _, _, err := kv.lookup([]byte(key)); err != nil || tid.PageNo >= 3 {
			break
		}
	}
	put(newer, "a", "new")
	for _, tx := range []*core.Txn{older, newer} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if tid, val, _, err := kv.lookup([]byte("a")); err != nil || string(val) != "new" || tid.PageNo < 3 {
		t.Fatalf("GET a: %q at %v, %v; want \"new\" on page 3 or later", val, tid, err)
	}
	rows, err := kv.Scan([]byte("a"), []byte("b"), 1)
	if err != nil || len(rows) != 1 || string(rows[0].Key) != "a" || string(rows[0].Value) != "new" {
		t.Fatalf("SCAN a b 1: %q, %v; want a new", rows, err)
	}
}

// TestKVGetAllocs pins what a warm GET allocates below the wire: a key with
// one version and an absent key. The resolver of a one-key lookup stays on
// the stack; one that escapes to the heap costs every GET another.
func TestKVGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not a property of the code under the race detector")
	}
	db, srv, _ := openKV(t, core.Memory(), 0)
	defer db.Close()
	kv := srv.KV()
	if err := kv.WithTxn(nil, func(tx *core.Txn) error { return kv.Put(tx, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key    string
		found  bool
		allocs float64
	}{{"k", true, 8}, {"absent", false, 3}} {
		key := []byte(tc.key)
		get := func() {
			if _, found, err := kv.Get(key); err != nil || found != tc.found {
				t.Fatalf("GET %s: found %v, %v", key, found, err)
			}
		}
		get()
		if n := testing.AllocsPerRun(100, get); n > tc.allocs {
			t.Errorf("warm GET %s: %v allocations, want at most %v", key, n, tc.allocs)
		}
	}
}
