// Command fastrec-server runs the storage engine as a long-lived network
// server: a line-based TCP KV protocol (see internal/server) over a
// core.DB whose commits are group committed — concurrent clients share
// one unordered device sync and one status-table append per batch.
//
// Quick start:
//
//	fastrec-server -addr :4411 -dir /var/lib/fastrec &
//	printf 'PUT answer 42\nGET answer\nQUIT\n' | nc localhost 4411
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, every session
// finishes its current command (in-flight commits drain through the
// group-commit coordinator), and the DB closes cleanly. A kill -9 models
// a crash; the next start recovers instantly, as the paper promises.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	addr    = flag.String("addr", "127.0.0.1:4411", "TCP listen address")
	dir     = flag.String("dir", "", "data directory (empty = volatile in-memory storage)")
	variant = flag.String("variant", "shadow", "index recovery technique: shadow, reorg, hybrid")
	pool    = flag.Int("pool", 0, "buffer pool frames per file (0 = default)")
	shards  = flag.Int("shards", 1, "partition the primary index across N independent trees (1 = single tree)")
	flush   = flag.Duration("flush", 50*time.Millisecond, "background checkpoint interval (0 disables the flush daemon)")
	drain   = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	obsHTTP = flag.String("obs-http", "", "serve expvar metrics (obs snapshot + health) on this address, e.g. :8080")
)

func main() {
	flag.Parse()
	v, err := btree.ParseVariant(*variant)
	if err == nil && v == btree.Normal {
		err = errors.New("-variant normal is the B-link tree with no crash protection and is not served")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastrec-server: %v; use -variant shadow, reorg or hybrid\n", err)
		os.Exit(2)
	}

	rec := obs.New(obs.DefaultRingCap)
	store := core.Memory()
	if *dir != "" {
		store = core.Dir(*dir)
	}
	db, err := core.Open(store, core.Config{
		PoolSize:   *pool,
		FlushEvery: *flush,
		Obs:        rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "open: %v\n", err)
		os.Exit(1)
	}

	srv, err := server.New(db, server.Options{Variant: v, Shards: *shards, DrainTimeout: *drain})
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fastrec-server: serving on %s (storage: %s, variant: %s, shards: %d)\n",
		srv.Addr(), storageDesc(), *variant, *shards)

	if *obsHTTP != "" {
		rec.Publish("fastrec")
		db.PublishHealth("fastrec_health")
		go func() {
			if err := http.ListenAndServe(*obsHTTP, nil); err != nil {
				fmt.Fprintf(os.Stderr, "obs-http: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "fastrec-server: metrics at http://%s/debug/vars\n", *obsHTTP)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "fastrec-server: draining...")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fastrec-server: %v\n", err)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fastrec-server: close: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fastrec-server: clean shutdown")
}

func storageDesc() string {
	if *dir != "" {
		return *dir
	}
	return "in-memory (volatile)"
}
