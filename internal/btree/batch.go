package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// Batched inserts. A single Insert pays one root-to-leaf descent and one
// leaf latch acquisition per key; when a caller has many keys in hand
// (server MPUT, bulk maintenance), most of that traffic is redundant —
// consecutive sorted keys usually land on the same leaf. InsertBatch sorts
// the batch, descends once per leaf run, and applies every key that
// belongs to (and fits in) the latched leaf under a single write latch.
//
// Latch protocol: a run holds exactly the latches a single shared-mode
// insert holds — the descent's one-latch-at-a-time walk, then the leaf's
// write latch — just for several keys instead of one. No additional locks
// are taken, so batches interleave with concurrent point ops under the
// same §3.6 rules, and a batch can never deadlock with one.

// InsertBatch inserts all key/value pairs. Keys are applied in sorted
// order; runs of keys that fall on the same leaf are applied under one
// leaf write latch after a single descent. Keys that cannot join a run
// (leaf full, structure moved, repair needed, empty tree) fall back to the
// ordinary Insert path, which handles splits and recovery. On error —
// including a duplicate key — a sorted-order prefix of the batch may
// already have been applied; callers needing atomicity must not use this
// (the server's MPUT keys are uniquified, so duplicates cannot occur
// there).
func (t *Tree) InsertBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("btree: batch of %d keys with %d values", len(keys), len(values))
	}
	for i := range keys {
		if err := validateKey(keys[i]); err != nil {
			return err
		}
		if err := validateValue(values[i]); err != nil {
			return err
		}
	}
	if err := t.awaitBound(); err != nil {
		return err
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
	})

	// The leaves of the runs ahead are read while this run works: before
	// each run, leaves are hinted until buffer.ReadWindow of them, this
	// run's included, are on their way. A key inside the bounds of the leaf
	// hinted last needs no hint of its own, so a dense batch pays one extra
	// descent per leaf, not per key; bounds a split has since outdated cost
	// at most a read nobody uses.
	sc := getDescent()
	defer putDescent(sc)
	var (
		ends  []int // where the keys of each hinted leaf not yet passed end
		ahead int   // the first sorted position no hint covers
	)
	for pos := 0; pos < len(order); {
		for len(ends) > 0 && ends[0] <= pos {
			ends = ends[1:]
		}
		for ahead = max(ahead, pos); len(ends) < buffer.ReadWindow && ahead < len(order); {
			leaf, ok := t.hintLeaf(keys[order[ahead]], sc)
			for ahead++; ok && ahead < len(order) && (leaf.hi == nil || bytes.Compare(keys[order[ahead]], leaf.hi) < 0); ahead++ {
			}
			ends = append(ends, ahead)
		}
		applied, err := t.insertRunShared(keys, values, order, pos)
		pos += applied
		if err != nil && !errors.Is(err, errRetryShared) && !errors.Is(err, errNeedsExclusive) {
			return err
		}
		if applied > 0 && err == nil {
			continue
		}
		if pos >= len(order) {
			break
		}
		// The run could not start (or stalled before this key): push one
		// key through the full insert path — splits, repairs, retries,
		// root creation — then try to batch again from the next key.
		if err := t.Insert(keys[order[pos]], values[order[pos]]); err != nil {
			return err
		}
		pos++
	}
	return nil
}

// insertRunShared applies a maximal run of sorted batch keys to the leaf
// covering the first key, under a single shared-mode descent and one leaf
// write latch. It returns how many keys were applied. A zero count means the
// run could not start (with a retry/exclusive sentinel, or nil for a leaf
// that is not ready); any other error (duplicate key) reports a genuinely
// failed key — everything before it is applied.
func (t *Tree) insertRunShared(keys, values [][]byte, order []int, start int) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.structVer.Load()
	if v%2 != 0 {
		return 0, errRetryShared
	}
	sc := getDescent()
	defer putDescent(sc)
	leaf, err := t.writeLeafShared(keys[order[start]], v, sc)
	if err != nil {
		return 0, err
	}
	f := leaf.frame
	applied := 0
	var runErr error
	for i := start; i < len(order); i++ {
		k, val := keys[order[i]], values[order[i]]
		if i > start && leaf.hi != nil && bytes.Compare(k, leaf.hi) >= 0 {
			break // next key belongs to a leaf further right
		}
		pos, st, err := t.prepareLeaf(f, k, leafItemLen(k, val))
		if err == nil && st != leafReady {
			break // full, unverified or unsynced: the single-key path splits, repairs and syncs
		}
		if err == nil {
			err = insertLeafAt(f.Data, pos, k, val)
		}
		if err != nil {
			runErr = t.pageErr(readOnly, v, err)
			break
		}
		applied++
	}
	if applied > 0 {
		f.MarkDirty()
		t.obs.CountN(obs.BatchPut, uint64(applied))
		t.obs.Count(obs.BatchLeafRun)
	}
	f.WUnlatch()
	f.Unpin()
	return applied, runErr
}
