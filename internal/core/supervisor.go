package core

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/vacuum"
)

// The background repair supervisor. Quarantining a page (degraded.go in
// internal/btree) keeps the foreground fast — a lookup that runs into an
// unrecoverable page fails typed in microseconds instead of retrying the
// repair inline. The supervisor owns the slow path: it periodically drains
// each pool's quarantine registry, re-runs the §3.3/§3.4 repair machinery
// off the caller's latency path with exponential backoff between attempts,
// and — for index pages whose durable source is truly gone — abandons the
// page and re-seeds its key range from the heap relation, which the
// no-overwrite storage system keeps as the authoritative copy (§2). Each
// successful heal shrinks the registry, and the lazy health recompute
// promotes the DB back toward Healthy.

// SupervisorConfig configures the background repair supervisor.
type SupervisorConfig struct {
	// Enable starts the supervisor goroutine in Open.
	Enable bool
	// Interval between quarantine sweeps. Zero means 25ms.
	Interval time.Duration
	// BaseBackoff/MaxBackoff bound the exponential delay between repair
	// attempts on the same page. Zero keeps the registry defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// GiveUpAfter is the per-page repair attempt budget; once spent the
	// page is marked GaveUp and, if critical, the DB goes Failed. Zero
	// keeps the registry default.
	GiveUpAfter int
	// RebuildAfter is the attempt count after which an index page with a
	// registered heal source (RegisterHeal) is abandoned and its key range
	// rebuilt from the heap relation instead of repaired from index state.
	// Zero disables heap rebuilds.
	RebuildAfter int
	// WholesaleRebuild switches the RebuildAfter escalation from the
	// insert-at-a-time reseed of the damaged key range to a bottom-up
	// reconstruction of the whole tree (btree.BulkReplace): one heap scan,
	// packed pages at the configured fill factor, and a single durable
	// root swap that also clears the tree's quarantine backlog. Cheaper
	// once damage is widespread; see EXPERIMENTS.md E12 for the crossover.
	WholesaleRebuild bool
}

const defaultSupervisorInterval = 25 * time.Millisecond

// healSource ties an index to the relation that can re-seed it.
type healSource struct {
	rel   *Relation
	keyOf vacuum.KeyOf
}

type supervisor struct {
	db   *DB
	stop chan struct{}
	done chan struct{}
}

// RegisterHeal tells the supervisor that ix is derived from rel: keyOf
// extracts the indexed key from tuple data (the same contract as the
// vacuum). With a heal source registered, quarantined pages of ix whose
// repair keeps failing are abandoned after SupervisorConfig.RebuildAfter
// attempts and their key range re-inserted from the heap. Rebuilds stay
// shard-correct: when shard i's page is abandoned, only heap keys that hash
// to shard i are re-inserted.
func (db *DB) RegisterHeal(ix *Index, rel *Relation, keyOf vacuum.KeyOf) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.healSources[ix.name] = healSource{rel: rel, keyOf: keyOf}
}

// startSupervisor launches the sweep loop; idempotent.
func (db *DB) startSupervisor() {
	if db.super != nil {
		return
	}
	s := &supervisor{db: db, stop: make(chan struct{}), done: make(chan struct{})}
	db.super = s
	go s.run()
}

// stopSupervisor halts the sweep loop and waits for an in-flight sweep to
// finish; must run before the pools are closed.
func (db *DB) stopSupervisor() {
	if db.super == nil {
		return
	}
	close(db.super.stop)
	<-db.super.done
	db.super = nil
}

func (s *supervisor) run() {
	defer close(s.done)
	interval := s.db.cfg.Supervisor.Interval
	if interval <= 0 {
		interval = defaultSupervisorInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.db.SuperviseOnce()
		}
	}
}

// SuperviseOnce runs one supervisor sweep synchronously: every quarantined
// page whose backoff deadline has passed gets one repair attempt. Exposed
// so tests and tools can drive the supervisor without the timer.
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

	// The shards of one index are swept side by side: each owns its own
	// quarantine registry and tree, so concurrent heals share no state (the
	// same independence that lets post-crash recovery parallelize).
	for _, ix := range indexes {
		_ = ix.eachTree(func(i int, t *btree.Tree) error {
			db.superviseTree(ix.name, t, ix.owns(i), now)
			return nil // failures are counted and retried per page
		})
	}
	for _, r := range rels {
		db.superviseRelation(r, now)
	}
	// Recompute even when nothing was due: heals mark the state dirty, and
	// the periodic read keeps Health() transitions flowing to the recorder.
	db.markHealthDirty()
	db.Health()
}

// superviseTree attempts one repair per due quarantined page of t, one of
// index name's trees. keyFilter, when non-nil, restricts heap rebuilds to
// keys owned by this tree.
func (db *DB) superviseTree(name string, t *btree.Tree, keyFilter func([]byte) bool, now time.Time) {
	q := t.Pool().Quarantine()
	for _, e := range q.Due(now) {
		var err error
		rebuild := false
		db.mu.Lock()
		src, hasSrc := db.healSources[name]
		db.mu.Unlock()
		wholesale := false
		if hasSrc && db.cfg.Supervisor.RebuildAfter > 0 &&
			e.Attempts >= db.cfg.Supervisor.RebuildAfter {
			rebuild = true
			if db.cfg.Supervisor.WholesaleRebuild {
				wholesale = true
				err = db.rebuildWholesale(t, src, keyFilter)
			} else {
				err = db.rebuildFromHeap(t, src, keyFilter, e)
			}
		} else {
			err = t.HealQuarantined(e.PageNo, e.Lo)
		}
		if err != nil {
			if rebuild && !q.IsQuarantined(e.PageNo) {
				// AbandonQuarantined released the entry before the heap
				// reseed finished (e.g. the re-insert descent hit another
				// damaged page). Restore it — range and attempt count
				// included, so the escalation stays on the rebuild path —
				// or the range's keys would be silently lost while the DB
				// reads Healthy.
				q.Add(e.PageNo, "heap reseed incomplete: "+err.Error(), e.Critical)
				if e.HasRange {
					q.SetRange(e.PageNo, e.Lo, e.Hi)
				}
				for i := 0; i < e.Attempts; i++ {
					q.MarkAttempt(e.PageNo)
				}
			}
			q.MarkAttempt(e.PageNo)
			db.cfg.Obs.Count(obs.SupervisorFail)
			db.cfg.Obs.Eventf(obs.SupervisorFail, e.PageNo,
				"supervisor repair attempt %d failed: %v", e.Attempts+1, err)
			continue
		}
		db.cfg.Obs.Count(obs.SupervisorRepair)
		if rebuild {
			db.cfg.Obs.Eventf(obs.SupervisorRepair, e.PageNo,
				"supervisor rebuilt page from heap after %d attempts", e.Attempts)
		} else {
			db.cfg.Obs.Eventf(obs.SupervisorRepair, e.PageNo,
				"supervisor healed page after %d attempts", e.Attempts)
		}
		if wholesale {
			// The whole tree was reconstructed and its quarantine registry
			// cleared; the remaining Due entries for it are gone too.
			break
		}
	}
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

// rebuildFromHeap abandons quarantined index page e (initializing it empty
// via the rebuild fallback) and re-inserts its key range from the heap
// relation. Only tuple versions visible to current committed state are
// re-indexed; keys already present elsewhere in the tree are skipped.
// keyFilter, when non-nil, drops keys another shard owns.
func (db *DB) rebuildFromHeap(t *btree.Tree, src healSource, keyFilter func([]byte) bool, e buffer.QuarantinedPage) error {
	if err := t.AbandonQuarantined(e.PageNo, e.Lo); err != nil {
		return err
	}
	var scanErr error
	err := src.rel.h.ScanAll(func(tid heap.TID, xmin, xmax heap.XID, data []byte) bool {
		if _, err := src.rel.h.Fetch(tid, db.mgr); err != nil {
			return true // dead or invisible version; the index must not resurrect it
		}
		key := src.keyOf(data)
		if key == nil {
			return true
		}
		if keyFilter != nil && !keyFilter(key) {
			return true
		}
		if e.HasRange {
			if bytes.Compare(key, e.Lo) < 0 {
				return true
			}
			if e.Hi != nil && bytes.Compare(key, e.Hi) >= 0 {
				return true
			}
		}
		if err := t.Insert(key, tid.Bytes()); err != nil &&
			!errors.Is(err, btree.ErrDuplicateKey) {
			scanErr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	return t.Sync()
}
