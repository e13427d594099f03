package core

import (
	"bytes"
	"errors"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/vacuum"
)

// The repair supervisor. Quarantining a page (degraded.go in internal/btree)
// keeps the foreground fast — a lookup that runs into an unrecoverable page
// fails typed in microseconds instead of retrying the repair inline. The
// supervisor owns the slow path: its sweep, which the daemon runs after
// every checkpoint (flusher.go), drains each pool's quarantine registry,
// re-runs the §3.3/§3.4 repair machinery off the caller's latency path with
// exponential backoff between attempts, and — for index pages whose durable
// source is truly gone — abandons the pages and re-seeds their key ranges
// from one pass over the heap relation, which the no-overwrite storage
// system keeps as the authoritative copy (§2). Each successful heal shrinks
// the registry, and the lazy health recompute promotes the DB back toward
// Healthy.

// rebuildAfter is the attempt count after which an index page with a
// registered heal source (RegisterHeal) is abandoned and its key range
// rebuilt from the heap relation instead of repaired from index state; one
// heap scan per sweep serves every range the sweep abandons. A page that
// failed one heal from index state has lost its durable source, so the
// second attempt goes to the heap.
const rebuildAfter = 1

// healSource ties an index to the relation that can re-seed it.
type healSource struct {
	rel   *Relation
	keyOf vacuum.KeyOf
}

// RegisterHeal tells the supervisor that ix is derived from rel: keyOf
// extracts the indexed key from tuple data (the same contract as the
// vacuum). With a heal source registered, quarantined pages of ix whose
// repair keeps failing are abandoned after rebuildAfter attempts and their
// key range re-inserted from the heap.
func (db *DB) RegisterHeal(ix *Index, rel *Relation, keyOf vacuum.KeyOf) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.healSources[ix.name] = healSource{rel: rel, keyOf: keyOf}
}

// SuperviseOnce runs one repair sweep synchronously: every quarantined page
// whose backoff deadline has passed gets one repair attempt. The daemon
// (flusher.go) runs one after each checkpoint; tests and tools call it to
// drive the sweep without the timer.
func (db *DB) SuperviseOnce() {
	now := time.Now()
	db.mu.Lock()
	indexes := make([]*Index, 0, len(db.indexes))
	for _, ix := range db.indexes {
		indexes = append(indexes, ix)
	}
	rels := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		rels = append(rels, r)
	}
	db.mu.Unlock()

	for _, ix := range indexes {
		db.superviseIndex(ix, now)
	}
	for _, r := range rels {
		db.superviseRelation(r, now)
	}
	// Recompute even when nothing was due: heals mark the state dirty, and
	// the periodic read keeps Health() transitions flowing to the recorder.
	db.markHealthDirty()
	db.Health()
}

// superviseIndex gives every due quarantined page of ix one repair attempt.
// A page below rebuildAfter attempts is healed from index state; one at or
// past it is abandoned, and every abandoned range of the index is then
// re-seeded from one heap pass.
func (db *DB) superviseIndex(ix *Index, now time.Time) {
	t := ix.tree
	q := t.Pool().Quarantine()
	due := q.Due(now)
	if len(due) == 0 {
		return
	}
	db.mu.Lock()
	src, hasSrc := db.healSources[ix.name]
	db.mu.Unlock()
	var abandoned []buffer.QuarantinedPage
	for _, e := range due {
		if hasSrc && e.Attempts >= rebuildAfter {
			if err := t.AbandonQuarantined(e.PageNo, e.Lo); err != nil {
				db.repairFailed(q, e, err, true)
			} else {
				abandoned = append(abandoned, e)
			}
			continue
		}
		if err := t.HealQuarantined(e.PageNo, e.Lo); err != nil {
			db.repairFailed(q, e, err, false)
			continue
		}
		db.cfg.Obs.Count(obs.SupervisorRepair)
		db.cfg.Obs.Eventf(obs.SupervisorRepair, e.PageNo,
			"supervisor healed page after %d attempts", e.Attempts)
	}
	if len(abandoned) > 0 {
		db.reseed(ix, src, abandoned)
	}
}

// reseed re-inserts the keys of the abandoned pages' ranges from the heap
// relation, which the no-overwrite storage system keeps as the
// authoritative copy (§2). One heap scan collects the keys inside any of
// the ranges; the tree then re-inserts them in key order, skipping keys
// already present. A range the reseed did not finish gets its quarantine
// ticket back.
func (db *DB) reseed(ix *Index, src healSource, abandoned []buffer.QuarantinedPage) {
	ranges := mergeRanges(abandoned)
	items, err := db.collectHeapItems(src.rel, src.keyOf, ranges.contain)
	// stopped is the key the reinsert failed at: every range below it is
	// back. A nil stopped with err set means none is.
	var stopped []byte
	if err == nil {
		stopped, err = reinsert(ix.tree, items)
	}
	q := ix.tree.Pool().Quarantine()
	for _, e := range abandoned {
		if err != nil && (stopped == nil || e.Hi == nil || bytes.Compare(e.Hi, stopped) > 0) {
			db.repairFailed(q, e, err, true)
			continue
		}
		db.cfg.Obs.Count(obs.SupervisorRepair)
		db.cfg.Obs.Eventf(obs.SupervisorRepair, e.PageNo,
			"supervisor rebuilt page from heap after %d attempts", e.Attempts)
	}
}

// reinsert inserts items into t in key order, skipping keys t already
// holds, and syncs what it inserted. If an insert fails it returns the key
// it stopped at: every item below it is in, and durable.
func reinsert(t *btree.Tree, items []btree.Item) (stopped []byte, err error) {
	slices.SortFunc(items, func(a, b btree.Item) int { return bytes.Compare(a.Key, b.Key) })
	for _, it := range items {
		if e := t.Insert(it.Key, it.Value); e != nil && !errors.Is(e, btree.ErrDuplicateKey) {
			stopped, err = it.Key, e
			break
		}
	}
	if syncErr := t.Sync(); syncErr != nil {
		return nil, syncErr
	}
	return stopped, err
}

// repairFailed records a failed repair attempt on e. After an abandon the
// registry may no longer hold e — AbandonQuarantined released it before the
// reseed finished, e.g. because the re-insert descent hit another damaged
// page. It is restored with its range (Add resumes its attempt count), so
// the escalation stays on the rebuild path; otherwise the range's keys
// would be silently lost while the DB reads Healthy.
func (db *DB) repairFailed(q *buffer.Quarantine, e buffer.QuarantinedPage, err error, abandoned bool) {
	if abandoned && !q.IsQuarantined(e.PageNo) {
		q.Add(e.PageNo, "heap reseed incomplete: "+err.Error(), e.Critical)
		if e.HasRange {
			q.SetRange(e.PageNo, e.Lo, e.Hi)
		}
	}
	q.MarkAttempt(e.PageNo)
	db.cfg.Obs.Count(obs.SupervisorFail)
	db.cfg.Obs.Eventf(obs.SupervisorFail, e.PageNo,
		"supervisor repair attempt %d failed: %v", e.Attempts+1, err)
}

// keyRange is the half-open key range [lo, hi); a nil hi is unbounded.
type keyRange struct{ lo, hi []byte }

// keyRanges is a sorted run of disjoint key ranges.
type keyRanges []keyRange

// mergeRanges merges the ranges of abandoned pages, nested and overlapping
// ones included: an abandoned internal page's range contains its leaves'.
// A page with no recorded range stands for the whole key space.
func mergeRanges(es []buffer.QuarantinedPage) keyRanges {
	var rs keyRanges
	for _, e := range es {
		if !e.HasRange {
			return keyRanges{{}}
		}
		rs = append(rs, keyRange{e.Lo, e.Hi})
	}
	slices.SortFunc(rs, func(a, b keyRange) int { return bytes.Compare(a.lo, b.lo) })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && (out[n-1].hi == nil || bytes.Compare(r.lo, out[n-1].hi) <= 0) {
			if out[n-1].hi != nil && (r.hi == nil || bytes.Compare(r.hi, out[n-1].hi) > 0) {
				out[n-1].hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// contain reports whether key lies in one of the ranges.
func (rs keyRanges) contain(key []byte) bool {
	i, found := slices.BinarySearchFunc(rs, key, func(r keyRange, k []byte) int {
		return bytes.Compare(r.lo, k)
	})
	// Otherwise rs[i-1] is the last range starting before key.
	return found || i > 0 && (rs[i-1].hi == nil || bytes.Compare(key, rs[i-1].hi) < 0)
}

// superviseRelation re-probes quarantined heap pages: a heap page enters
// quarantine only via the pool's zero-route streak (no index repair exists
// for it), so the heal is simply "does the durable image read clean now".
func (db *DB) superviseRelation(r *Relation, now time.Time) {
	p := r.h.Pool()
	q := p.Quarantine()
	for _, e := range q.Due(now) {
		if p.ProbeDurable(e.PageNo) {
			p.ReleaseQuarantine(e.PageNo)
			db.cfg.Obs.Count(obs.SupervisorRepair)
			db.cfg.Obs.Eventf(obs.SupervisorRepair, e.PageNo,
				"supervisor released heap page, durable image reads clean")
			continue
		}
		q.MarkAttempt(e.PageNo)
		db.cfg.Obs.Count(obs.SupervisorFail)
		db.cfg.Obs.Eventf(obs.SupervisorFail, e.PageNo,
			"supervisor probe attempt %d: heap page still unreadable", e.Attempts+1)
	}
}
