package server

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// awaitGoroutines waits until the process runs no more goroutines than
// before, failing after a few seconds.
func awaitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines before Listen, %d after Close", what, before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestCloseJoinsEverything: Close returns only once every goroutine the
// server started has exited — the accept loop and each session, whether the
// session sat idle or held an open transaction — and a Close racing Listen
// leaves no accept loop behind. Under -race the racing loop also checks the
// WaitGroup rule that a count leaving zero is ordered before Wait.
func TestCloseJoinsEverything(t *testing.T) {
	db, err := core.Open(core.Memory(), core.Config{PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	newServer := func() *Server {
		srv, err := New(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.kv.idx.Tree().AwaitBound(); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	for _, tc := range []struct {
		name   string
		script []string // requests sent before Close, each answered
	}{
		{"idle", []string{"PUT k v"}},
		{"mid-BEGIN", []string{"PUT k v", "BEGIN", "PUT k w"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer()
			before := runtime.NumGoroutine()
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			cl := dial(t, srv)
			for _, line := range tc.script {
				cl.expectPrefix(line, "OK")
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			cl.c.Close()
			awaitGoroutines(t, before, tc.name)
			// An open transaction dies with its session: its write is
			// invisible.
			if v, ok, err := srv.kv.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
				t.Fatalf("GET k after Close: %q, %v, %v; want v", v, ok, err)
			}
		})
	}

	t.Run("Listen racing Close", func(t *testing.T) {
		loops := 300
		if testing.Short() {
			loops = 50
		}
		before := runtime.NumGoroutine()
		listened := 0
		for i := 0; i < loops; i++ {
			srv := newServer()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if srv.Listen("127.0.0.1:0") == nil { // fails once Close came first
					listened++
				}
			}()
			// Close after a delay that sweeps the span of a Listen, so that
			// some loops land between its bind and its return.
			for spin := time.Now().Add(time.Duration(i%50) * 2 * time.Microsecond); time.Now().Before(spin); {
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("loop %d: Close: %v", i, err)
			}
			wg.Wait()
		}
		t.Logf("%d of %d Listens won the race", listened, loops)
		awaitGoroutines(t, before, "Listen racing Close")
	})
}
