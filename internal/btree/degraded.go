package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// Degraded mode: when §3.3/§3.4 repair concludes a page has no durable
// source to rebuild from (ErrUnrecoverable), the page — and with it the key
// range the parent prescribes for its subtree — is quarantined in the
// buffer pool instead of failing every operation that touches the tree.
// Point operations into the range fail fast with a typed error; range scans
// skip the quarantined interval and report it (ScanDegraded); the rest of
// the keyspace keeps serving with zero wrong results. The repair supervisor
// (internal/core) later re-runs the repair off the caller's latency path,
// or abandons the page and rebuilds it from the heap relation.

// ErrQuarantined re-exports the pool's sentinel so callers can classify
// degraded-mode failures without importing internal/buffer.
var ErrQuarantined = buffer.ErrQuarantined

// QuarantinedRangeError reports an operation that ran into a quarantined
// subtree, carrying the key range the parent prescribes for it (Hi nil =
// unbounded above, as for a quarantined root). It unwraps to ErrQuarantined.
type QuarantinedRangeError struct {
	PageNo uint32
	Lo, Hi []byte
	Reason string
}

func (e *QuarantinedRangeError) Error() string {
	return fmt.Sprintf("btree: page %d quarantined, keys [%q, %q) unavailable (%s)",
		e.PageNo, e.Lo, e.Hi, e.Reason)
}

func (e *QuarantinedRangeError) Unwrap() error { return buffer.ErrQuarantined }

// SkippedRange is one quarantined interval a degraded scan stepped over.
type SkippedRange struct {
	PageNo uint32
	Lo, Hi []byte // Hi nil = unbounded above
	Reason string
}

// ScanReport summarizes what a degraded scan could not serve. An empty
// Skipped list means the scan was complete.
type ScanReport struct {
	Skipped []SkippedRange
}

// Complete reports whether the scan covered its whole requested range.
func (r *ScanReport) Complete() bool { return len(r.Skipped) == 0 }

// skip records the quarantined interval an operation stepped over.
func (r *ScanReport) skip(qe *QuarantinedRangeError) {
	r.Skipped = append(r.Skipped, SkippedRange{PageNo: qe.PageNo, Lo: qe.Lo, Hi: qe.Hi, Reason: qe.Reason})
}

// quarantineSubtree withdraws page no (and the subtree below it) from
// service after repair failed with cause, recording the prescribed key
// range in the registry so scans and the supervisor can reason about it.
func (t *Tree) quarantineSubtree(no uint32, lo, hi []byte, critical bool, cause error) *QuarantinedRangeError {
	reason := cause.Error()
	t.pool.QuarantinePage(no, reason, critical)
	t.pool.Quarantine().SetRange(no, lo, hi)
	return &QuarantinedRangeError{
		PageNo: no,
		Lo:     cloneBytes(lo),
		Hi:     cloneBytes(hi),
		Reason: reason,
	}
}

// asRangeError converts a pool-level quarantine error (typed but rangeless)
// into a QuarantinedRangeError carrying the range the parent prescribes.
func asRangeError(no uint32, lo, hi []byte, err error) *QuarantinedRangeError {
	var qe *buffer.QuarantineError
	reason := err.Error()
	if errors.As(err, &qe) {
		reason = qe.Reason
	}
	return &QuarantinedRangeError{
		PageNo: no,
		Lo:     cloneBytes(lo),
		Hi:     cloneBytes(hi),
		Reason: reason,
	}
}

// ScanDegraded visits keys in [start, end) like Scan, but steps over
// quarantined subtrees instead of failing: each skipped interval is
// recorded in the returned ScanReport and the scan resumes at its upper
// bound. Every key it does emit is correct — skip-and-report, never
// wrong-and-silent. Runs exclusively, since it may trigger repairs.
func (t *Tree) ScanDegraded(start, end []byte, fn func(key, value []byte) bool) (ScanReport, error) {
	var rep ScanReport
	if err := t.lockExclusive(); err != nil {
		return rep, err
	}
	defer t.mu.Unlock()
	cur := start
	for {
		var err error
		if cur, err = t.scan(cur, end, nil, fn, repairing); err == nil {
			return rep, nil
		}
		var qe *QuarantinedRangeError
		if !errors.As(err, &qe) {
			return rep, err
		}
		rep.skip(qe)
		t.obs.Eventf(obs.ScanSkip, qe.PageNo, "scan skipped quarantined range")
		if qe.Hi == nil {
			// Unbounded above: nothing past the quarantined subtree is
			// reachable from here.
			return rep, nil
		}
		// Resume past the quarantined interval. The failing descent was
		// headed for a key inside [qe.Lo, qe.Hi), so qe.Hi strictly
		// advances the cursor; guard anyway so a registry inconsistency
		// cannot livelock the scan.
		if bytes.Compare(qe.Hi, cur) <= 0 {
			return rep, fmt.Errorf("%w: quarantined range did not advance the scan cursor", ErrUnrecoverable)
		}
		cur = qe.Hi
		if end != nil && bytes.Compare(cur, end) >= 0 {
			return rep, nil
		}
	}
}

// RecoverAvailable walks every reachable leaf range like RecoverAll,
// triggering every pending repair, but steps over quarantined subtrees and
// reports them instead of failing on the first one. Used by the scrub tool
// to distinguish "repaired" from "unrecoverable".
func (t *Tree) RecoverAvailable() (ScanReport, error) {
	var rep ScanReport
	if err := t.lockExclusive(); err != nil {
		return rep, err
	}
	defer t.mu.Unlock()
	return rep, t.recoverWalk(&rep)
}

// HealQuarantined attempts to bring quarantined page no back into service:
// the page is released from the registry (resetting its zero-route streak)
// and the repair machinery is re-run by descending into lo, the low end of
// the page's recorded range. On success the rebuilt state is made durable
// and nil is returned; if the repair fails again the page re-enters
// quarantine and the error is returned. Called by the repair supervisor off
// the caller's latency path.
func (t *Tree) HealQuarantined(no uint32, lo []byte) error {
	return t.redescendQuarantined(no, lo, false, "repair failed again")
}

// AbandonQuarantined gives up on recovering quarantined page no from index
// state: the repair is re-run with the rebuild fallback armed, so the
// "no durable source" cases that normally return ErrUnrecoverable
// initialize an empty page instead of failing. The keys the page held are
// gone from the index afterwards — the caller (the repair supervisor) is
// expected to re-insert them from the heap relation, which remains the
// authoritative copy.
func (t *Tree) AbandonQuarantined(no uint32, lo []byte) error {
	return t.redescendQuarantined(no, lo, true, "rebuild fallback failed")
}

// redescendQuarantined releases page no from quarantine, re-runs its repair
// by descending into lo — with the rebuild fallback armed if rebuild — and
// syncs; failed is the reason reported if the page is quarantined again.
func (t *Tree) redescendQuarantined(no uint32, lo []byte, rebuild bool, failed string) error {
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	if !t.pool.ReleaseQuarantine(no) {
		return nil // already released (healed or superseded elsewhere)
	}
	t.rebuildFallback = rebuild
	defer func() { t.rebuildFallback = false }()
	leaf, err := t.repairedLeaf(lo, false)
	if err != nil {
		return err
	}
	if leaf != nil {
		leaf.frame.Unpin()
	}
	if err := t.syncLocked(); err != nil {
		return err
	}
	if t.pool.Quarantine().IsQuarantined(no) {
		return &QuarantinedRangeError{PageNo: no, Reason: failed}
	}
	return nil
}

// rebuildRootEmpty is the root-level rebuild fallback: the root's durable
// source is gone, so under AbandonQuarantined it is initialized empty (the
// heap relation re-seeds the whole index afterwards).
func (t *Tree) rebuildRootEmpty(metaFrame, rootFrame *buffer.Frame, format string, args ...any) error {
	t.initTreePage(rootFrame, 0)
	rootFrame.MarkDirty()
	metaPage{metaFrame.Data}.setRootToken(rootFrame.Data.SyncToken())
	metaFrame.MarkDirty()
	t.obs.Eventf(obs.RepairRebuild, uint32(rootFrame.PageNo()),
		"initialized empty root for heap rebuild: "+format, args...)
	return nil
}

// unrecoverableChild is the single exit for "no durable source" repair
// outcomes. Normally it returns ErrUnrecoverable — the caller quarantines
// the subtree. Under the rebuild fallback (AbandonQuarantined) it
// initializes the frame as an empty page of the right level instead: index
// content is lost, but the heap relation still holds every tuple and the
// supervisor re-inserts them.
func (t *Tree) unrecoverableChild(f *buffer.Frame, level uint8, format string, args ...any) error {
	if t.rebuildFallback {
		t.initTreePage(f, level)
		t.markRepairedLeaf(f)
		f.MarkDirty()
		t.obs.Eventf(obs.RepairRebuild, uint32(f.PageNo()),
			"no durable source; initialized empty for heap rebuild: "+format, args...)
		return nil
	}
	return fmt.Errorf("%w: "+format, append([]any{ErrUnrecoverable}, args...)...)
}
