package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzSession feeds arbitrary bytes to one session as a client's stream over
// net.Pipe, on a fresh in-memory store. The session must not panic, must be
// done within a deadline of the last byte, and must answer only in the
// protocol's reply forms: every complete reply line begins with OK, ERR, ROW
// or NOTFOUND. An ERR reply is one line, so a message with a line break in
// it shows up as a line that begins with none of them.
//
//	go test ./internal/server -run '^$' -fuzz '^FuzzSession$' -fuzztime 10s
func FuzzSession(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzSession) holds the small
	// seeds; a line over maxLine is a megabyte, so it is built here.
	f.Add(append(bytes.Repeat([]byte("x"), maxLine+1), "\nGET k\n"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		db, err := core.Open(core.Memory(), core.Config{PoolSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, err := New(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		server, client := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			newSession(srv, server).run()
		}()
		replies := make(chan []byte, 1)
		go func() {
			var out bytes.Buffer
			_, _ = out.ReadFrom(client) // until the session closes its end
			replies <- out.Bytes()
		}()
		// A pipe write returns once the session has read every byte. The read
		// deadline then ends the session at its next read, after it has
		// answered every complete line it buffered; a final unterminated line
		// is dropped, as on any connection that fails mid-line. Both calls
		// fail harmlessly if the session has already quit.
		go func() {
			_, _ = client.Write(in)
			_ = server.SetReadDeadline(time.Now())
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session still running 10s after it was handed %d bytes", len(in))
		}
		out := <-replies

		r := bufio.NewReader(bytes.NewReader(out))
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				break // EOF; a partial last line was cut by the close
			}
			if !validReply(line) {
				t.Fatalf("reply line %q is none of OK, ERR, ROW, NOTFOUND", line)
			}
		}
	})
}

// validReply reports whether one reply line has a protocol reply form.
func validReply(line string) bool {
	for _, p := range []string{"OK\n", "OK ", "ERR ", "ROW ", "NOTFOUND\n"} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}
