package core

import (
	"time"

	"repro/internal/obs"
)

// The DB's one background daemon: a checkpoint, then a repair sweep, on
// every tick of FlushEvery.
//
// The checkpoint: commit latency in the §2 discipline is dominated by
// forcing dirty pages at commit time; a page dirtied long ago by some other
// transaction ("cold" dirt) still gets paid for by whichever commit happens
// to force that file next. The daemon writes dirty pages back on a timer, so
// the commit-time force finds mostly clean pools and pays only for the
// committing batch's own pages. Flushing early is always legal here: the
// unordered §2 sync may run at any time without breaking the correctness
// argument — tuples are invisible until the status table says otherwise,
// and the index repair machinery tolerates any durable prefix of its writes.
//
// The sweep (SuperviseOnce, supervisor.go) drains the quarantine registries
// off the callers' latency path. Repair stays part of normal processing: on
// a healthy DB the sweep finds nothing due and costs a registry check per
// pool.

type flusher struct {
	stop chan struct{}
	done chan struct{}
}

// FlushAll syncs every open relation and every open index once — a
// checkpoint. It never touches the transaction status table, so it can
// never make an uncommitted transaction visible.
func (db *DB) FlushAll() error {
	db.mu.Lock()
	syncers := make([]interface{ Sync() error }, 0, len(db.rels)+len(db.indexes))
	for _, r := range db.rels {
		syncers = append(syncers, r.h)
	}
	for _, ix := range db.indexes {
		syncers = append(syncers, ix.tree)
	}
	db.mu.Unlock()
	var firstErr error
	for _, s := range syncers {
		if err := s.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.cfg.Obs.Count(obs.FlushDaemon)
	return firstErr
}

// startFlusher launches the daemon when FlushEvery is positive.
func (db *DB) startFlusher() {
	if db.cfg.FlushEvery <= 0 {
		return
	}
	f := &flusher{stop: make(chan struct{}), done: make(chan struct{})}
	db.flush = f
	go db.runFlusher(f)
}

// stopFlusher stops the daemon and waits for an in-flight pass to finish;
// it must run before the pools are closed.
func (db *DB) stopFlusher() {
	if db.flush == nil {
		return
	}
	close(db.flush.stop)
	<-db.flush.done
	db.flush = nil
}

func (db *DB) runFlusher(f *flusher) {
	defer close(f.done)
	t := time.NewTicker(db.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			// Flush errors are transient-I/O territory; the pools'
			// retry/quarantine machinery already owns reporting them,
			// the next commit's force will retry the sync anyway, and the
			// sweep that follows is that machinery's slow path.
			_ = db.FlushAll()
			db.SuperviseOnce()
		}
	}
}
