package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestNewestFirstMatchesOracle: GET and SCAN fetch a key's versions newest
// first and stop at the first visible one. On seeded histories — keys that
// prefix one another, so that their entries interleave; versions committed,
// aborted, deleted, left in flight, and written by two transactions that
// never saw each other; values large enough to spread them over dozens of
// heap pages — they must answer what fetching every version and keeping the
// visible one with the highest TID answers.
func TestNewestFirstMatchesOracle(t *testing.T) {
	keys := []string{"a", "a\x01", "a\x02", "a\x02\x01", "a\x03", "b", "b\x00", "c"}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, srv, _ := openKV(t, core.Memory(), 0)
			defer db.Close()
			kv := srv.KV()
			put := func(tx *core.Txn, k string) error {
				v := fmt.Sprintf("%q/%d/%s", k, rng.Intn(1000), strings.Repeat("v", rng.Intn(1500)))
				return kv.WithTxn(tx, func(tx *core.Txn) error { return kv.Put(tx, []byte(k), []byte(v)) })
			}
			end := func(tx *core.Txn, err error) {
				if err == nil {
					err = tx.Commit()
				} else {
					err = tx.Abort()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// A write to a version another transaction still holds fails,
			// and its transaction aborts: one more aborted writer.
			inFlight := 0
			for i := 0; i < 300; i++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(6) {
				case 0, 1: // committed
					_ = put(nil, k)
				case 2: // deleted
					_ = kv.WithTxn(nil, func(tx *core.Txn) error { _, err := kv.Del(tx, []byte(k)); return err })
				case 3: // aborted
					tx := db.Begin()
					_ = put(tx, k)
					end(tx, errors.New("abort"))
				case 4: // two writers that never see each other
					a, b := db.Begin(), db.Begin()
					errA, errB := put(a, k), put(b, k)
					end(a, errA)
					end(b, errB)
				case 5: // left in flight
					if inFlight < 3 {
						tx := db.Begin()
						if err := put(tx, k); err != nil {
							end(tx, err)
						} else {
							inFlight++
						}
					}
				}
			}

			want := make(map[string]string)
			for _, k := range keys {
				var best version
				for _, v := range visibleVersions(t, srv, k) {
					if !best.found || v.tid.PageNo > best.tid.PageNo || v.tid.PageNo == best.tid.PageNo && v.tid.Slot > best.tid.Slot {
						best = v
					}
				}
				val, found, err := kv.Get([]byte(k))
				if err != nil || found != best.found || string(val) != string(best.val) {
					t.Fatalf("GET %q: %.20q, %v, %v; want %.20q, %v", k, val, found, err, best.val, best.found)
				}
				if found {
					want[k] = string(val)
				}
			}
			present := make([]string, 0, len(want))
			for k := range want {
				present = append(present, k)
			}
			slices.Sort(present)
			bound := func() []byte {
				if rng.Intn(3) == 0 {
					return nil
				}
				return []byte(keys[rng.Intn(len(keys))])
			}
			for q := 0; q < 50; q++ {
				lo, hi, limit := bound(), bound(), 1+rng.Intn(len(keys))
				if q == 0 {
					lo, hi, limit = nil, nil, len(keys)
				}
				var wantRows, gotRows []string
				for _, k := range present {
					if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) && len(wantRows) < limit {
						wantRows = append(wantRows, k+"="+want[k])
					}
				}
				rows, err := kv.Scan(lo, hi, limit)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					gotRows = append(gotRows, string(r.Key)+"="+string(r.Value))
				}
				if !slices.Equal(gotRows, wantRows) {
					t.Fatalf("SCAN %q %q %d: %d rows, want %d", lo, hi, limit, len(gotRows), len(wantRows))
				}
			}
		})
	}
}

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
