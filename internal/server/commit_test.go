package server

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestWriteAfterUncommittedUpdate: a transaction that stamped a version's xmax
// and then ended without committing — aborted, dropped with its connection,
// or failed in its force — leaves that version current, and the next writer
// replaces it. heap.Delete used to refuse any xmax, so the key could never be
// written again: PUT and DEL answered "already deleted" while GET answered v1,
// and the retry that ERR retry promises could never succeed. The crash case
// is in TestServerXIDNotReusedAfterCrash.
func TestWriteAfterUncommittedUpdate(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, srv *Server, store core.Storage, cl *client)
	}{
		{"abort", func(t *testing.T, srv *Server, store core.Storage, cl *client) {
			cl.expectPrefix("BEGIN", "OK ")
			cl.expect("PUT k v2", "OK")
			cl.expectPrefix("ABORT", "OK ")
		}},
		{"dropped connection", func(t *testing.T, srv *Server, store core.Storage, cl *client) {
			loser := dial(t, srv)
			loser.expectPrefix("BEGIN", "OK ")
			loser.expect("PUT k v2", "OK")
			loser.c.Close()
			// A session aborts its transaction before it lets go of the
			// connection.
			for deadline := time.Now().Add(5 * time.Second); sessions(srv) > 1; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the dropped session did not end")
				}
			}
		}},
		{"force failure", func(t *testing.T, srv *Server, store core.Storage, cl *client) {
			dev := core.FaultDisks(store)["rel_kv"]
			dev.FailSyncs(errors.New("heap device on fire"))
			cl.expectPrefix("PUT k v2", "ERR retry ")
			dev.FailSyncs(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := core.FaultyMemory(storage.FaultConfig{})
			db, srv, _ := openServer(t, store, 0, Options{})
			defer db.Close()
			defer srv.Close()
			cl := dial(t, srv)
			cl.expect("PUT k v1", "OK")
			tc.end(t, srv, store, cl)
			cl.expect("GET k", "OK v1")
			cl.expect("PUT k v3", "OK")
			cl.expect("GET k", "OK v3")
			cl.expect("DEL k", "OK")
			cl.expect("GET k", "NOTFOUND")
		})
	}
}

// sessions is the number of connections srv is serving.
func sessions(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.conns)
}
