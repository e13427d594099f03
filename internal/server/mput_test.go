package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
)

// TestServerMput: the batched write verb, autocommit and transactional,
// error shapes, update semantics, and the STATS counters it feeds.
func TestServerMput(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	cl := dial(t, srv)

	// Autocommit batch: all pairs visible right after the OK.
	cl.expect("MPUT a 1 b 2 c 3", "OK 3")
	cl.expect("GET a", "OK 1")
	cl.expect("GET b", "OK 2")
	cl.expect("GET c", "OK 3")

	// Batch updates overwrite like PUT does.
	cl.expect("MPUT a 10 d 4", "OK 2")
	cl.expect("GET a", "OK 10")
	cl.expect("GET d", "OK 4")

	// Inside a transaction: invisible until COMMIT.
	begin := cl.expectPrefix("BEGIN", "OK ")
	xid := strings.TrimPrefix(begin, "OK ")
	cl.expect("MPUT e 5 f 6", "OK 2")
	cl.expect("GET e", "NOTFOUND")
	cl.expect("COMMIT", "OK "+xid)
	cl.expect("GET e", "OK 5")
	cl.expect("GET f", "OK 6")

	// Malformed lines: empty and odd token counts.
	cl.expectPrefix("MPUT", "ERR usage")
	cl.expectPrefix("MPUT k", "ERR usage")
	cl.expectPrefix("MPUT k v k2", "ERR usage")

	// A duplicate user key within one batch: last write still resolves to
	// one visible version (the highest TID wins).
	cl.expect("MPUT dup x dup y", "OK 2")
	rows, final := cl.scan("SCAN dup dupz")
	if final != "OK 1" || len(rows) != 1 {
		t.Fatalf("SCAN after dup batch: rows=%v final=%q", rows, final)
	}

	// STATS surfaces the batched-path counters.
	reply := cl.expectPrefix("STATS", "OK ")
	var stats map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(reply, "OK ")), &stats); err != nil {
		t.Fatalf("STATS JSON: %v", err)
	}
	for _, k := range []string{"batch_puts", "batch_leaf_runs", "evict_promotions"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("STATS missing %q: %v", k, stats)
		}
	}
	// 9 keys went through MPUT; the very first fell back to the single
	// insert path (root creation is exclusive), the rest batched.
	if bp, _ := stats["batch_puts"].(float64); bp < 8 {
		t.Fatalf("batch_puts = %v, want >= 8", stats["batch_puts"])
	}
}

// versionsOf returns the TIDs of every version the index holds for key.
func versionsOf(t *testing.T, srv *Server, key string) []heap.TID {
	t.Helper()
	var out []heap.TID
	err := srv.kv.idx.Scan([]byte(key), nil, func(e []byte, tid heap.TID) bool {
		if !bytes.HasPrefix(e, []byte(key)) {
			return false
		}
		if len(e) == len(key)+heap.TIDLen {
			out = append(out, tid)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// visibleVersions fetches every version the index holds for user key and
// returns the committed-visible ones: the resolver by brute force.
func visibleVersions(t *testing.T, srv *Server, key string) []version {
	t.Helper()
	var out []version
	for _, tid := range versionsOf(t, srv, key) {
		if data, err := srv.kv.rel.Fetch(tid); err == nil {
			out = append(out, version{tid, data, true})
		}
	}
	return out
}

// TestServerMputRepeatedKey: a key named twice (or more) in one MPUT —
// whether it already exists or not, autocommitted or inside BEGIN — takes
// its last value and leaves exactly one visible version. An existing key
// used to fail with "tuple already deleted" (the second pair updated the
// version the first had just stamped), a new one to leave two visible
// versions.
func TestServerMputRepeatedKey(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	cl := dial(t, srv)
	one := func(key, want string) {
		t.Helper()
		cl.expect("GET "+key, "OK "+want)
		if n := len(visibleVersions(t, srv, key)); n != 1 {
			t.Fatalf("%s: %d visible versions, want 1", key, n)
		}
	}

	cl.expect("PUT k v0", "OK")
	cl.expect("MPUT k a k b", "OK 2")
	one("k", "b")
	cl.expect("MPUT n a other z n b n c", "OK 4")
	one("n", "c")
	one("other", "z")

	cl.expectPrefix("BEGIN", "OK ")
	cl.expect("MPUT k c k d m x m y", "OK 4")
	cl.expect("GET k", "OK b") // uncommitted: the old version still serves
	cl.expect("GET m", "NOTFOUND")
	cl.expectPrefix("COMMIT", "OK ")
	one("k", "d")
	one("m", "y")
}

// TestServerMputLargeBatchSharded drives a large MPUT through the sharded
// index: pairs fan out across shards and apply in parallel.
func TestServerMputLargeBatchSharded(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{Shards: 4})
	defer db.Close()
	cl := dial(t, srv)

	const n = 200
	var sb strings.Builder
	sb.WriteString("MPUT")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " k%04d v%04d", i, i)
	}
	cl.expect(sb.String(), fmt.Sprintf("OK %d", n))
	for _, i := range []int{0, 1, 57, 123, n - 1} {
		cl.expect(fmt.Sprintf("GET k%04d", i), fmt.Sprintf("OK v%04d", i))
	}
	rows, final := cl.scan(fmt.Sprintf("SCAN - - %d", n))
	if final != fmt.Sprintf("OK %d", n) || len(rows) != n {
		t.Fatalf("SCAN: %d rows, final %q", len(rows), final)
	}
}
