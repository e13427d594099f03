// Package txn implements the POSTGRES-style transaction manager the
// paper's storage system assumes (§2): there is no write-ahead log; a
// transaction commits by forcing every page it touched to stable storage
// and then durably recording its XID as committed. After a crash the
// status table simply lacks the XIDs of in-flight transactions, so their
// tuples are invisible — recovery is instantaneous.
//
// Commits are group committed. Because the §2 force is an *unordered*
// sync, the forces of concurrently committing transactions may legally be
// coalesced into one device sync, and their commit records into one
// status-table write: a leader drains the queue of waiting committers,
// forces each distinct storage object once, appends every XID in the
// batch with a single status append, and wakes the followers with the
// shared result. A crash before the status append leaves every member of
// the batch invisible; a crash after leaves them all committed — there is
// no partial-batch durability.
//
// The two steps are a pipeline: a leader hands leadership on as soon as its
// force returns, so the next batch forces while this one appends. Appends
// still run one at a time, in the order the batches began to force.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// ErrTxnFinished is returned when using a committed or aborted transaction.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// ErrCommitFailed marks a commit that could not complete. The transaction
// has been aborted: its tuples remain physically present but will never be
// visible. The failure is safe to retry as a NEW transaction (re-run the
// work and commit again); servers surface it as a retryable error.
var ErrCommitFailed = errors.New("txn: commit failed; transaction aborted")

// CommitError reports why a commit failed and at which stage. It unwraps
// to both ErrCommitFailed and the underlying device error.
//
// Stage "force" means a touched storage object's Sync failed before any
// commit record was written: the status table is untouched and the
// transaction is simply invisible, exactly as if it had crashed.
//
// Stage "status" means the status-table write itself failed. The
// transaction is aborted in this process, but durability of the commit
// record is indeterminate: a subsequent restart may find it committed
// (its data pages were already forced, so that outcome is consistent too).
//
// Stage "begin" means Begin could not make the transaction's XID durable as
// handed out (Txn.Err): it wrote nothing and is invisible.
type CommitError struct {
	XID   heap.XID
	Stage string // "force", "status" or "begin"
	Err   error
}

func (e *CommitError) Error() string {
	return fmt.Sprintf("txn: commit of xid %d failed at %s stage: %v (transaction aborted)", e.XID, e.Stage, e.Err)
}

// Unwrap lets errors.Is see both the sentinel and the device error.
func (e *CommitError) Unwrap() []error { return []error{ErrCommitFailed, e.Err} }

// Syncer is anything whose dirty pages must be forced before a commit:
// heap relations, indexes, or whole databases.
type Syncer interface {
	Sync() error
}

// Manager allocates XIDs and maintains the durable commit status table,
// which lives in its own page file (status.go).
type Manager struct {
	disk storage.Disk
	obs  *obs.Recorder // nil-safe; set once before concurrent use

	mu        sync.Mutex
	nextXID   heap.XID
	ceiling   heap.XID // durable: a restart resumes at or above it, so Begin hands out nothing from it up
	committed map[heap.XID]bool
	active    map[heap.XID]*Txn

	// statusMu serializes the writers of the status file: the commit leader
	// and a Begin raising the ceiling. It is taken before mu, and mu is never
	// held across a device call — Committed waits for no write.
	statusMu sync.Mutex
	tailNo   storage.PageNo
	tail     page.Page // image of page tailNo, the first page that is not full

	gc groupCommitter

	// Test hooks, fired by the commit leader. Set before concurrent use.
	hookAfterForce         func(batch []heap.XID) // batch forced and its turn come, status not yet written
	hookAfterSuccessorSync func()                 // appendCrossing: successors durable, tail page not yet written
	hookAfterAppend        func()                 // batch published committed, members still active
}

// OpenManager loads (or initializes) the status table from disk.
func OpenManager(disk storage.Disk) (*Manager, error) {
	m := &Manager{
		disk:      disk,
		nextXID:   2, // XID 1 is the bootstrap transaction
		committed: map[heap.XID]bool{1: true},
		active:    make(map[heap.XID]*Txn),
	}
	m.gc.cond = sync.NewCond(&m.gc.mu)
	if err := m.loadStatus(); err != nil {
		return nil, err
	}
	return m, nil
}

// SetObs attaches a recovery-event recorder to the commit path (batch and
// coalescing counters, commit-latency and status-write histograms). Call
// before concurrent use; a nil recorder is the disabled state.
func (m *Manager) SetObs(r *obs.Recorder) { m.obs = r }

// Begin starts a transaction. Its XID lies under the durable ceiling; a
// Begin that finds the ceiling reached raises it first, with an empty status
// append — one page write, made outside m.mu. If that write fails the
// transaction is returned already failed: Err reports why, nothing may be
// written under its XID, and Commit aborts it.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	var err error
	for m.nextXID >= m.ceiling && err == nil {
		m.mu.Unlock()
		err = m.appendStatus(nil)
		m.mu.Lock()
	}
	t := &Txn{mgr: m, xid: m.nextXID, err: err}
	m.nextXID++
	m.active[t.xid] = t
	m.mu.Unlock()
	return t
}

// Committed implements heap.StatusChecker.
func (m *Manager) Committed(x heap.XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.committed[x]
}

// Aborted implements heap.TxnStatus: x's transaction is neither committed nor
// active — it aborted, or failed its commit. After a restart no transaction
// of the last run is active, so an XID the status table does not hold
// belongs to one that aborted or died. Both maps are read under one hold of
// mu: a commit publishes its XIDs committed before it leaves active, so at
// every moment x is in one map or the other until it is over.
func (m *Manager) Aborted(x heap.XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, live := m.active[x]
	return !live && !m.committed[x]
}

// HighestCommitted returns the largest committed XID (for as-of snapshots).
func (m *Manager) HighestCommitted() heap.XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hi heap.XID
	for x := range m.committed {
		if x > hi {
			hi = x
		}
	}
	return hi
}

// --- group commit --------------------------------------------------------

// groupCommitter is the commit coordinator: a queue of waiting committers
// and a pipeline of two stages. The first committer to find the queue
// headless and no force running becomes leader, drains the whole queue, and
// forces the storage of every member at once; later arrivals park on the
// condition variable. The leader gives leadership up as soon as its force
// returns — the next queue head may then force the next batch — and waits
// for its batch's turn to append. Each batch takes a ticket as it starts to
// force and appends once every batch with a lower ticket has, so status
// entries stay in batch order and appends run one at a time. Members of a
// batch leave with the shared result when its append is over; a member
// taken into a batch never leads.
type groupCommitter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*commitReq
	leading  bool   // a leader is forcing its batch
	tickets  uint64 // batches that have started to force
	appended uint64 // batches whose append is over: the tickets below it
}

// commitReq is one transaction waiting to commit. err, taken and done are
// written by the leader and read by the owner, all under gc.mu.
type commitReq struct {
	t     *Txn
	enq   time.Time // when it joined the queue; zero with no recorder
	err   error
	taken bool // drained into a batch: it waits for done
	done  bool
}

// groupCommit enqueues req and blocks until a leader (possibly the caller)
// has committed or failed it.
func (m *Manager) groupCommit(req *commitReq) error {
	g := &m.gc
	g.mu.Lock()
	g.queue = append(g.queue, req)
	for !req.done && (req.taken || g.leading || g.queue[0] != req) {
		g.cond.Wait()
	}
	if req.done {
		err := req.err
		g.mu.Unlock()
		return err
	}
	// Queue head with no force running: lead this batch.
	g.leading = true
	batch := g.queue
	g.queue = nil
	for _, r := range batch {
		r.taken = true
	}
	ticket := g.tickets
	g.tickets++
	if g.appended < ticket {
		m.obs.Count(obs.CommitOverlap)
	}
	g.mu.Unlock()

	commitSet := m.forceBatch(batch)

	var forced time.Time
	if m.obs != nil {
		forced = time.Now()
	}
	g.mu.Lock()
	g.leading = false
	g.cond.Broadcast() // the next queue head may force while this batch appends
	for g.appended != ticket {
		g.cond.Wait()
	}
	g.mu.Unlock()
	if m.obs != nil {
		m.obs.Observe(obs.TCommitTurn, time.Since(forced))
	}

	m.appendBatch(batch, commitSet)

	g.mu.Lock()
	g.appended++
	for _, r := range batch {
		r.done = true
	}
	err := req.err
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// forceBatch is the first step of §2 for a whole batch: force every distinct
// storage object the batch touched, one unordered sync each, shared by all
// members that touched it. It returns the members whose storage was forced.
// The others are failed with a typed error; a device failure on one relation
// does not poison transactions that never touched it.
func (m *Manager) forceBatch(batch []*commitReq) []*commitReq {
	m.obs.Count(obs.CommitBatch)
	m.obs.CountN(obs.CommitTxn, uint64(len(batch)))
	var start time.Time
	if m.obs != nil {
		start = time.Now()
		for _, r := range batch {
			m.obs.Observe(obs.TCommitQueue, start.Sub(r.enq))
		}
	}

	// Each Syncer is forced once no matter how many batch members touched
	// it — legal because the §2 sync is unordered and covers every dirty page
	// regardless of owner. The distinct Syncers are collected first, then
	// forced in parallel goroutines: nothing orders one object's unordered
	// sync against another's, and a batch that wrote a relation and its
	// index spans two independent sync domains whose device flushes overlap.
	forced := make(map[Syncer]error)
	var distinct []Syncer
	for _, r := range batch {
		for _, s := range r.t.touched {
			if _, done := forced[s]; done {
				m.obs.Count(obs.CommitSyncSkip)
				continue
			}
			forced[s] = nil
			distinct = append(distinct, s)
		}
	}
	switch len(distinct) {
	case 0:
	case 1:
		forced[distinct[0]] = distinct[0].Sync()
	default:
		m.obs.Count(obs.CommitFanout)
		errs := make([]error, len(distinct))
		var wg sync.WaitGroup
		for i, s := range distinct {
			wg.Add(1)
			go func(i int, s Syncer) {
				defer wg.Done()
				errs[i] = s.Sync()
			}(i, s)
		}
		wg.Wait()
		for i, s := range distinct {
			forced[s] = errs[i]
		}
	}

	if m.obs != nil {
		m.obs.Observe(obs.TCommitForce, time.Since(start))
	}

	var commitSet []*commitReq
	for _, r := range batch {
		var failErr error
		for _, s := range r.t.touched {
			if err := forced[s]; err != nil {
				failErr = err
				break
			}
		}
		if failErr != nil {
			r.err = &CommitError{XID: r.t.xid, Stage: "force", Err: failErr}
			m.obs.Count(obs.CommitFail)
			continue
		}
		commitSet = append(commitSet, r)
	}
	return commitSet
}

// appendBatch is the second step, run in the batch's turn: one status append
// covering every member of commitSet (status.go), after which every member of
// the batch is finished — committed or aborted. m.committed, the visibility
// oracle, is updated only after the append is durable, so no reader can
// observe a transaction as committed before its commit record is (and a
// status-write failure never has to retract visibility a reader may already
// have acted on). A member stays active until then, so Aborted never reports
// it and no other writer can replace an xmax it set.
func (m *Manager) appendBatch(batch, commitSet []*commitReq) {
	xids := make([]heap.XID, len(commitSet))
	for i, r := range commitSet {
		xids[i] = r.t.xid
	}
	if m.hookAfterForce != nil {
		m.hookAfterForce(xids)
	}
	if len(xids) > 0 {
		if err := m.appendStatus(xids); err != nil {
			for _, r := range commitSet {
				r.err = &CommitError{XID: r.t.xid, Stage: "status", Err: err}
				m.obs.Count(obs.CommitFail)
			}
		}
	}
	if m.hookAfterAppend != nil {
		m.hookAfterAppend()
	}

	m.mu.Lock()
	for _, r := range batch {
		delete(m.active, r.t.xid)
	}
	m.mu.Unlock()
}

// Txn is one transaction. It records the storage it touched so commit can
// force exactly the right pages (in this reproduction, whole files).
type Txn struct {
	mgr      *Manager
	xid      heap.XID
	err      error // set by a Begin that could not reserve the XID
	touched  []Syncer
	finished bool
}

// XID returns the transaction's identifier.
func (t *Txn) XID() heap.XID { return t.xid }

// Err is non-nil for a transaction whose Begin could not raise the durable
// XID ceiling over its XID. A tuple written under such an XID could be
// resurrected by the XID's next owner after a crash, so callers must check
// Err before writing one; Commit fails with it.
func (t *Txn) Err() error { return t.err }

// Touch registers storage whose dirty pages must be forced at commit.
func (t *Txn) Touch(s Syncer) {
	for _, have := range t.touched {
		if have == s {
			return
		}
	}
	t.touched = append(t.touched, s)
}

// Commit implements the two-step force of §2, batched with any other
// transactions committing concurrently: first every page the batch touched
// is written and synced (in an order the DBMS does not control), then the
// commit records — the XIDs' entries in the status table — are made
// durable together. A crash between the two steps leaves every member of
// the batch uncommitted and all their tuples invisible; a crash after
// both leaves them fully committed. There is no window in which a
// committed transaction's data can be missing, and no window in which
// part of a batch is durable without the rest.
//
// On failure the transaction is aborted — never left in limbo — and the
// returned error unwraps to ErrCommitFailed plus the device error. The
// caller may retry the work under a new transaction.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnFinished
	}
	if t.err != nil {
		t.Abort()
		t.mgr.obs.Count(obs.CommitFail)
		return &CommitError{XID: t.xid, Stage: "begin", Err: t.err}
	}
	req := &commitReq{t: t}
	if t.mgr.obs != nil {
		req.enq = time.Now()
	}
	err := t.mgr.groupCommit(req)
	if t.mgr.obs != nil {
		t.mgr.obs.Observe(obs.TCommit, time.Since(req.enq))
	}
	t.finished = true // committed or aborted; either way it is over
	return err
}

// Abort abandons the transaction. Nothing is undone: the tuples it wrote
// remain physically present but invisible forever (until the vacuum
// reclaims them), exactly the no-overwrite discipline.
func (t *Txn) Abort() error {
	if t.finished {
		return ErrTxnFinished
	}
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, t.xid)
	t.finished = true
	return nil
}
