package core

import (
	"errors"
	"expvar"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// The DB health-state machine. Quarantined pages (internal/buffer) drive
// the state: a page repair could not restore degrades the DB instead of
// failing it, a quarantined meta or root page (critical) withdraws write
// service, and a critical page whose repair budget is spent marks the DB
// failed. The repair supervisor's sweep (supervisor.go), run by the daemon
// after every checkpoint, drains the quarantine registries and promotes the
// DB back toward Healthy.
//
//	Healthy  — no quarantined pages; all operations allowed.
//	Degraded — quarantined non-critical pages; reads and writes continue,
//	           point lookups into quarantined ranges fail typed, scans
//	           skip-and-report.
//	ReadOnly — a critical page (index meta or root) is quarantined; writes
//	           are refused with ErrReadOnly, reads continue degraded.
//	Failed   — a critical page exhausted its repair budget; all operations
//	           are refused with ErrFailed.

// HealthState is the DB's position in the degradation ladder.
type HealthState int32

const (
	Healthy HealthState = iota
	Degraded
	ReadOnly
	Failed
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "readonly"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("health(%d)", int32(s))
	}
}

// Errors the health gates return.
var (
	// ErrReadOnly refuses writes while a critical page is quarantined.
	ErrReadOnly = errors.New("core: database is read-only (critical page quarantined)")
	// ErrFailed refuses all operations after a critical page exhausted its
	// repair budget.
	ErrFailed = errors.New("core: database failed (critical page unrecoverable)")
	// ErrQuarantined re-exports the typed degraded-mode error.
	ErrQuarantined = buffer.ErrQuarantined
)

// markHealthDirty is the quarantine registries' change notification. It
// must stay lock-free: it can fire from inside pool code while arbitrary
// locks are held, so the recompute happens lazily on the next Health read.
func (db *DB) markHealthDirty() { db.healthDirty.Store(true) }

// Health returns the DB's current health state, recomputing it if any
// quarantine registry changed since the last read. Transitions are counted
// (health.transition) and recorded in the event ring.
func (db *DB) Health() HealthState {
	// Load first: a failed CompareAndSwap still takes the cache line
	// exclusive, and every read of a healthy DB passes through here.
	if db.healthDirty.Load() && db.healthDirty.CompareAndSwap(true, false) {
		next := db.computeHealth()
		prev := HealthState(db.health.Swap(int32(next)))
		if prev != next {
			db.cfg.Obs.Eventf(obs.HealthTransition, 0, "%s -> %s", prev, next)
		}
	}
	return HealthState(db.health.Load())
}

// computeHealth derives the state from every pool's quarantine registry.
func (db *DB) computeHealth() HealthState {
	total := 0
	critical, gaveUp := false, false
	for _, np := range db.pools() {
		q := np.pool.Quarantine()
		total += q.Len()
		c, g := q.Critical()
		critical = critical || c
		gaveUp = gaveUp || g
	}
	switch {
	case gaveUp:
		return Failed
	case critical:
		return ReadOnly
	case total > 0:
		return Degraded
	default:
		return Healthy
	}
}

// namedPool is one open buffer pool and the file it caches.
type namedPool struct {
	file string
	pool *buffer.Pool
}

// pools snapshots every open buffer pool: each index's, then the
// relations'.
func (db *DB) pools() []namedPool {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]namedPool, 0, len(db.indexes)+len(db.rels))
	for _, ix := range db.indexes {
		out = append(out, namedPool{ix.fileName(), ix.tree.Pool()})
	}
	for name, r := range db.rels {
		out = append(out, namedPool{"rel_" + name, r.h.Pool()})
	}
	return out
}

// writable gates mutating operations on the health state.
func (db *DB) writable() error {
	switch db.Health() {
	case ReadOnly:
		return ErrReadOnly
	case Failed:
		return ErrFailed
	}
	return nil
}

// readable gates read operations; only Failed refuses reads.
func (db *DB) readable() error {
	if db.Health() == Failed {
		return ErrFailed
	}
	return nil
}

// attachHealth hooks a freshly opened pool into the health machinery:
// registry changes mark the health dirty.
func (db *DB) attachHealth(p *buffer.Pool) {
	p.Quarantine().SetNotify(db.markHealthDirty)
	// An index pool arrives with its bound walk already reading: whatever
	// that quarantined before the hook was in place is picked up by the
	// next Health read.
	db.markHealthDirty()
}

// QuarantineEntry is one quarantined page in the DB-wide health report.
type QuarantineEntry struct {
	File     string `json:"file"`
	PageNo   uint32 `json:"page"`
	Reason   string `json:"reason"`
	Critical bool   `json:"critical,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	GaveUp   bool   `json:"gave_up,omitempty"`
	Lo       string `json:"lo,omitempty"`
	Hi       string `json:"hi,omitempty"`
}

// HealthReport is the expvar/JSON view of the health-state machine.
type HealthReport struct {
	State       string            `json:"state"`
	Quarantined []QuarantineEntry `json:"quarantined,omitempty"`
}

// HealthReport summarizes the current state and every quarantined page.
func (db *DB) HealthReport() HealthReport {
	rep := HealthReport{State: db.Health().String()}
	for _, np := range db.pools() {
		for _, e := range np.pool.Quarantine().List() {
			rep.Quarantined = append(rep.Quarantined, QuarantineEntry{
				File:     np.file,
				PageNo:   e.PageNo,
				Reason:   e.Reason,
				Critical: e.Critical,
				Attempts: e.Attempts,
				GaveUp:   e.GaveUp,
				Lo:       fmt.Sprintf("%q", e.Lo),
				Hi:       fmt.Sprintf("%q", e.Hi),
			})
		}
	}
	return rep
}

var healthPublished sync.Map // name -> struct{}; expvar.Publish panics on reuse

// PublishHealth registers the DB's live health report under name in the
// expvar registry (served at /debug/vars), alongside the obs snapshot.
// Publishing the same name twice is a no-op.
func (db *DB) PublishHealth(name string) {
	if _, loaded := healthPublished.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return db.HealthReport() }))
}
