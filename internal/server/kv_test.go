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
			db, srv, _ := openServer(t, core.Memory(), 0, Options{})
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
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
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
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	kv := srv.KV()
	if err := kv.WithTxn(nil, func(tx *core.Txn) error { return kv.Put(tx, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key    string
		found  bool
		allocs float64
	}{{"k", true, 7}, {"absent", false, 3}} {
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

// TestKVScanMatchesModel: KV.Scan against a brute-force model of each key's
// newest visible version. Keys are 1 to 4 bytes over a 3-byte alphabet, so
// most keys prefix others; the alphabet's bytes sort among the TID bytes
// MakeUnique appends, and values spread the versions over two dozen heap
// pages, so a key's entries interleave with its extensions'. Every key gets
// 1 to 3 versions, some written by aborted transactions, and some keys are
// deleted afterwards. Bounds and limits are drawn at random, open bounds
// included.
func TestKVScanMatchesModel(t *testing.T) {
	alphabet := []byte{0x00, 0x02, 0x05}
	randKey := func(rng *rand.Rand, minLen int) []byte {
		k := make([]byte, minLen+rng.Intn(5-minLen))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return k
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, srv, _ := openServer(t, core.Memory(), 0, Options{})
			defer db.Close()
			kv := srv.KV()

			// Each key's writes, shuffled together so that versions of
			// different keys alternate on the heap pages.
			var writes []string
			for range 100 {
				k := string(randKey(rng, 1))
				for range 1 + rng.Intn(3) {
					writes = append(writes, k)
				}
			}
			rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
			model := make(map[string]string)
			for i, k := range writes {
				v := fmt.Sprintf("%d/%s", i, strings.Repeat("v", rng.Intn(2000)))
				tx := db.Begin()
				if err := kv.Put(tx, []byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			for k := range model {
				if rng.Intn(5) == 0 {
					if err := kv.WithTxn(nil, func(tx *core.Txn) error { _, err := kv.Del(tx, []byte(k)); return err }); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				}
			}
			present := make([]string, 0, len(model))
			for k := range model {
				present = append(present, k)
			}
			slices.Sort(present)

			bound := func() []byte {
				if rng.Intn(4) == 0 {
					return nil
				}
				return randKey(rng, 0)
			}
			for q := range 400 {
				lo, hi, limit := bound(), bound(), 1+rng.Intn(len(present)+3)
				var want []string
				for _, k := range present {
					if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) && len(want) < limit {
						want = append(want, fmt.Sprintf("%q=%.12s", k, model[k]))
					}
				}
				rows, err := kv.Scan(lo, hi, limit)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]string, 0, len(rows))
				for _, r := range rows {
					got = append(got, fmt.Sprintf("%q=%.12s", r.Key, r.Value))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("query %d: SCAN %q %q %d:\n got %q\nwant %q", q, lo, hi, limit, got, want)
				}
			}
		})
	}
}

// TestKVScanAllocs pins what a warm 50-row SCAN allocates below the wire,
// over keys of two versions each: the rows share one buffer, and an entry
// past a full result costs no allocation.
func TestKVScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not a property of the code under the race detector")
	}
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	kv := srv.KV()
	const n = 400
	for range 2 {
		var keys, vals [][]byte
		for i := range n {
			keys = append(keys, kvKey(i))
			vals = append(vals, []byte(fmt.Sprintf("%-100d", i)))
		}
		if err := kv.WithTxn(nil, func(tx *core.Txn) error { return kv.PutBatch(tx, keys, vals) }); err != nil {
			t.Fatal(err)
		}
	}
	lo := kvKey(100)
	scan := func() {
		if rows, err := kv.Scan(lo, nil, 50); err != nil || len(rows) != 50 || string(rows[49].Key) != string(kvKey(149)) {
			t.Fatalf("SCAN: %d rows, %v", len(rows), err)
		}
	}
	scan()
	if n := testing.AllocsPerRun(50, scan); n > 12 {
		t.Errorf("warm 50-row SCAN: %v allocations, want at most 12", n)
	}
}

// BenchmarkKVScan: a warm 50-row SCAN below the wire from a random key of 20k
// keys, each of two versions, as the read-hot workload's SCAN meets them.
func BenchmarkKVScan(b *testing.B) {
	db, srv, _ := openServer(b, core.Memory(), 0, Options{})
	defer db.Close()
	kv := srv.KV()
	const n = 20000
	for range 2 {
		for from := 0; from < n; from += 500 {
			var keys, vals [][]byte
			for i := from; i < from+500; i++ {
				keys = append(keys, kvKey(i))
				vals = append(vals, []byte(fmt.Sprintf("%-100d", i)))
			}
			if err := kv.WithTxn(nil, func(tx *core.Txn) error { return kv.PutBatch(tx, keys, vals) }); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := kv.Scan(kvKey(rng.Intn(n)), nil, 50); err != nil {
			b.Fatal(err)
		}
	}
}
