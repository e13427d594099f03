// Package shard partitions one logical index keyspace across N
// independent B-link trees, the level-up analogue of the buffer pool's
// lock striping (§3.6 / PR 2): where striping split one clock and one
// lock into per-partition copies, sharding splits the remaining
// singletons — the tree itself, its sync counter, its split lock, and
// its quarantine registry — into per-shard copies that never contend.
//
// The Router hashes each key to a shard: routing is a pure function of the
// key bytes, so its owner sends point operations straight to one tree and
// concurrent operations on different shards share no mutable state. Range
// scans see the union keyspace in key order via a k-way merge over
// per-shard cursors (each shard's tree is internally sorted; keys are
// disjoint across shards because routing is deterministic), preserving
// the degraded-mode contract: a quarantined subtree in one shard is
// skipped and reported without poisoning the merged stream.
//
// The paper's "repair on first use" design (§3.3/§3.4) is what makes
// sharding pay off at recovery time too: no shard needs a log pass or
// any cross-shard coordination to heal, so post-crash recovery sweeps
// run per-shard in parallel goroutines — the same insight multicore
// parallel-recovery systems exploit, applied to N trees instead of N
// partitions of a log.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/obs"
)

// Tree is the per-shard index surface the router merges and recovers over.
// *btree.Tree satisfies it; tests substitute stubs to drive merge edge cases.
type Tree interface {
	Scan(start, end []byte, fn func(key, value []byte) bool) error
	ScanDegraded(start, end []byte, fn func(key, value []byte) bool) (btree.ScanReport, error)
	RecoverAvailable() (btree.ScanReport, error)
}

// Router merges scans and recovery sweeps over N shards. All methods are
// safe for concurrent use; the router itself holds no locks — cross-shard
// coordination exists only inside range scans, which are per-call state.
type Router struct {
	shards []Tree
}

// New builds a router over the given shard trees (at least one).
func New(shards []Tree) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	return &Router{shards: append([]Tree(nil), shards...)}, nil
}

// Pick maps a key to its owning shard: FNV-1a over the key bytes, mod N.
// Hash (not range) partitioning spreads ascending-key insert storms — the
// paper's worst case for split traffic — evenly over every shard's split
// lock instead of hammering one.
func (r *Router) Pick(key []byte) int {
	return int(fnv1a(key) % uint64(len(r.shards)))
}

// PickN is Pick for callers that know the shard count but hold no router.
func PickN(key []byte, n int) int {
	return int(fnv1a(key) % uint64(n))
}

func fnv1a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- merged range scans ---------------------------------------------------

// scanChunk is the per-shard cursor refill size. Each refill is one pass
// under the shard's tree lock; the merge pulls from in-memory buffers
// between refills, so the chunk size trades lock acquisitions against
// buffered copies.
const scanChunk = 128

type kvPair struct{ k, v []byte }

// cursor pulls one shard's entries in key order, a chunk at a time.
// Push-based tree scans become pull-based merge legs by collecting up to
// scanChunk entries per call and resuming at the first refused key —
// scans are inclusive of their start key, so the refused key is simply
// the next refill's start.
type cursor struct {
	t        Tree
	end      []byte
	degraded bool

	buf  []kvPair
	pos  int
	next []byte // start key of the next refill
	done bool   // underlying scan ran to completion

	// Degraded mode: skipped ranges are merged into the shared report,
	// deduplicated by page number (a range re-encountered by a later
	// refill of the same cursor must not be reported twice). repMu guards
	// the report: initial refills run concurrently across cursors.
	rep   *btree.ScanReport
	repMu *sync.Mutex
	seen  map[uint32]bool
}

// refill fetches the next chunk. Post-condition: pos < len(buf) or the
// cursor is exhausted (done && pos == len(buf)).
func (c *cursor) refill() error {
	c.buf = c.buf[:0]
	c.pos = 0
	if c.done {
		return nil
	}
	stopped := false
	collect := func(k, v []byte) bool {
		if len(c.buf) == scanChunk {
			stopped = true
			c.next = append(c.next[:0], k...)
			return false
		}
		c.buf = append(c.buf, kvPair{k: cloneBytes(k), v: cloneBytes(v)})
		return true
	}
	if c.degraded {
		rep, err := c.t.ScanDegraded(c.next, c.end, collect)
		c.repMu.Lock()
		for _, s := range rep.Skipped {
			if !c.seen[s.PageNo] {
				c.seen[s.PageNo] = true
				c.rep.Skipped = append(c.rep.Skipped, s)
			}
		}
		c.repMu.Unlock()
		if err != nil {
			return err
		}
	} else {
		if err := c.t.Scan(c.next, c.end, collect); err != nil {
			return err
		}
	}
	if !stopped {
		c.done = true
	}
	return nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Scan visits the union keyspace in [start, end) in global key order: a
// k-way merge over per-shard cursors. Keys are disjoint across shards
// (routing is deterministic), so no dedup is needed; a tie — possible
// only if shards were populated outside the router — is broken by shard
// index for determinism.
func (r *Router) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	_, err := r.mergeScan(start, end, false, fn)
	return err
}

// ScanDegraded is Scan with the skip-and-report contract of
// btree.ScanDegraded lifted to the union keyspace: quarantined subtrees
// in any shard are stepped over and recorded in the merged report; every
// entry the merged stream does emit is correct, and healthy shards are
// never affected by a degraded one.
func (r *Router) ScanDegraded(start, end []byte, fn func(key, value []byte) bool) (btree.ScanReport, error) {
	return r.mergeScan(start, end, true, fn)
}

func (r *Router) mergeScan(start, end []byte, degraded bool, fn func(key, value []byte) bool) (btree.ScanReport, error) {
	var rep btree.ScanReport
	first := start
	if first == nil {
		first = []byte{}
	}
	var repMu sync.Mutex
	cursors := make([]*cursor, len(r.shards))
	for i, t := range r.shards {
		cursors[i] = &cursor{
			t: t, end: end, degraded: degraded,
			next: append([]byte(nil), first...),
			rep:  &rep, repMu: &repMu, seen: make(map[uint32]bool),
		}
	}
	// Initial refills run in parallel: each leg is an independent tree
	// descent, typically I/O-bound on a cold pool.
	errs := make([]error, len(cursors))
	var wg sync.WaitGroup
	for i, c := range cursors {
		wg.Add(1)
		go func(i int, c *cursor) {
			defer wg.Done()
			errs[i] = c.refill()
		}(i, c)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return rep, err
	}

	for {
		best := -1
		for i, c := range cursors {
			if c.pos == len(c.buf) {
				continue
			}
			if best == -1 || bytes.Compare(c.buf[c.pos].k, cursors[best].buf[cursors[best].pos].k) < 0 {
				best = i
			}
		}
		if best == -1 {
			return rep, nil
		}
		c := cursors[best]
		e := c.buf[c.pos]
		c.pos++
		if c.pos == len(c.buf) {
			// Refill before yielding so the next min-compare sees a
			// non-empty buffer or a finished cursor.
			if err := c.refill(); err != nil {
				return rep, err
			}
		}
		if !fn(e.k, e.v) {
			return rep, nil
		}
	}
}

// --- parallel recovery ----------------------------------------------------

// RecoveryStats reports one post-crash recovery sweep across all shards.
type RecoveryStats struct {
	Shards   int             `json:"shards"`
	Wall     time.Duration   `json:"wall_ns"`
	PerShard []time.Duration `json:"per_shard_ns"`
}

// Recover runs every shard's repair-on-first-use sweep
// (btree.RecoverAvailable): each pending §3.3/§3.4 repair is triggered
// and quarantined subtrees are collected into the merged report. Shards
// heal concurrently in goroutines — they share no state, so an N-shard heal
// approaches 1/N of the sequential wall time on a device that overlaps I/O.
// A sweep begins by waiting for its shard's allocation-bound walk; those
// have all been running side by side since the shards were opened. The
// recorder, when non-nil, counts one shard.recover per finished shard.
func (r *Router) Recover(rec *obs.Recorder) (RecoveryStats, btree.ScanReport, error) {
	st := RecoveryStats{
		Shards:   len(r.shards),
		PerShard: make([]time.Duration, len(r.shards)),
	}
	reps := make([]btree.ScanReport, len(r.shards))
	errs := make([]error, len(r.shards))
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := time.Now()
			reps[i], errs[i] = t.RecoverAvailable()
			st.PerShard[i] = time.Since(s)
			rec.Eventf(obs.ShardRecover, 0, "shard %d/%d recovered in %v (skipped %d ranges)",
				i, len(r.shards), st.PerShard[i], len(reps[i].Skipped))
		}()
	}
	wg.Wait()
	st.Wall = time.Since(start)
	var merged btree.ScanReport
	for _, rp := range reps {
		merged.Skipped = append(merged.Skipped, rp.Skipped...)
	}
	if err := firstError(errs); err != nil {
		return st, merged, fmt.Errorf("shard: recovery sweep failed: %w", err)
	}
	return st, merged, nil
}
