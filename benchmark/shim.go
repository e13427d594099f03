package main

import (
	"bytes"
	"sort"

	"repro/internal/core"
	"repro/internal/heap"
)

// engine is the core rung: the KV semantics of internal/server/session.go
// re-stated over the same public core calls (DB.Begin, Index.Scan,
// Relation.Fetch/Insert/Update/Delete, Index.InsertTID[Batch], Txn.Commit),
// with a span around each. Running a request stream through it and through
// the TCP server and subtracting is how the wire's own cost is measured;
// TestShimMatchesServer keeps the two from drifting apart.
type engine struct {
	db  *core.DB
	rel *core.Relation
	idx *core.Index
	tr  *tracer // nil = untraced

	// entries counts index entries the current request examined.
	entries int
}

var tidLen = len(heap.TID{}.Bytes())

type kvRow struct{ key, val []byte }

func tidLess(a, b heap.TID) bool {
	if a.PageNo != b.PageNo {
		return a.PageNo < b.PageNo
	}
	return a.Slot < b.Slot
}

// lookupVisible resolves key to its newest visible version (session.go's
// lookupVisible). parent is the span of the request it serves.
func (e *engine) lookupVisible(key []byte, parent int32) (heap.TID, []byte, bool, error) {
	var (
		bestTID heap.TID
		bestVal []byte
		found   bool
	)
	scan := e.tr.begin(kIndexScan, parent)
	err := e.idx.Scan(key, nil, func(ent []byte, tid heap.TID) bool {
		e.entries++
		if !bytes.HasPrefix(ent, key) {
			return false
		}
		if len(ent) != len(key)+tidLen {
			return true
		}
		fetch := e.tr.begin(kHeapFetch, scan)
		data, err := e.rel.Fetch(tid)
		e.tr.end(fetch)
		if err != nil {
			return true
		}
		if !found || tidLess(bestTID, tid) {
			bestTID, bestVal, found = tid, data, true
		}
		return true
	})
	e.tr.end(scan)
	if err != nil {
		return heap.TID{}, nil, false, err
	}
	return bestTID, bestVal, found, nil
}

// autocommit is session.go's withTxn outside BEGIN.
func (e *engine) autocommit(parent int32, fn func(tx *core.Txn) error) error {
	tx := e.db.Begin()
	if err := fn(tx); err != nil {
		_ = tx.Abort() // the write failed; its error is the one to report
		return err
	}
	commit := e.tr.begin(kCommit, parent)
	err := tx.Commit()
	e.tr.end(commit)
	return err
}

func (e *engine) get(key []byte) ([]byte, bool, error) {
	op := e.tr.beginOp(vGet)
	_, val, ok, err := e.lookupVisible(key, op)
	e.tr.end(op)
	return val, ok, err
}

// write is session.go's put body: update the visible version or insert.
func (e *engine) write(tx *core.Txn, key, value []byte, parent int32) (heap.TID, error) {
	old, _, exists, err := e.lookupVisible(key, parent)
	if err != nil {
		return heap.TID{}, err
	}
	w := e.tr.begin(kHeapWrite, parent)
	var tid heap.TID
	if exists {
		tid, err = e.rel.Update(tx, old, value)
	} else {
		tid, err = e.rel.Insert(tx, value)
	}
	e.tr.end(w)
	return tid, err
}

func (e *engine) put(key, value []byte) error {
	op := e.tr.beginOp(vPut)
	err := e.autocommit(op, func(tx *core.Txn) error {
		tid, err := e.write(tx, key, value, op)
		if err != nil {
			return err
		}
		ins := e.tr.begin(kIndexInsert, op)
		err = e.idx.InsertTID(tx, core.MakeUnique(key, tid), tid)
		e.tr.end(ins)
		return err
	})
	e.tr.end(op)
	return err
}

func (e *engine) mput(keys, values [][]byte) error {
	op := e.tr.beginOp(vMput)
	err := e.autocommit(op, func(tx *core.Txn) error {
		ikeys := make([][]byte, len(keys))
		tids := make([]heap.TID, len(keys))
		for i := range keys {
			tid, err := e.write(tx, keys[i], values[i], op)
			if err != nil {
				return err
			}
			ikeys[i], tids[i] = core.MakeUnique(keys[i], tid), tid
		}
		ins := e.tr.begin(kIndexInsert, op)
		err := e.idx.InsertTIDBatch(tx, ikeys, tids)
		e.tr.end(ins)
		return err
	})
	e.tr.end(op)
	return err
}

func (e *engine) del(key []byte) (bool, error) {
	op := e.tr.beginOp(vDel)
	found := false
	err := e.autocommit(op, func(tx *core.Txn) error {
		tid, _, exists, err := e.lookupVisible(key, op)
		if err != nil || !exists {
			return err
		}
		found = true
		w := e.tr.begin(kHeapWrite, op)
		err = e.rel.Delete(tx, tid)
		e.tr.end(w)
		return err
	})
	e.tr.end(op)
	return found, err
}

// scan is session.go's scanVisible for an open upper bound, the only form
// the generator sends (SCAN <lo> - <n> and SCAN - - <n>).
func (e *engine) scan(lo []byte, limit int) ([]kvRow, error) {
	type cand struct {
		tid heap.TID
		val []byte
	}
	op := e.tr.beginOp(vScan)
	best := make(map[string]cand)
	var keys []string
	scan := e.tr.begin(kIndexScan, op)
	err := e.idx.Scan(lo, nil, func(ent []byte, tid heap.TID) bool {
		e.entries++
		if len(ent) < tidLen {
			return true
		}
		key := ent[:len(ent)-tidLen]
		if lo != nil && bytes.Compare(key, lo) < 0 {
			return true
		}
		ks := string(key)
		if _, tracked := best[ks]; !tracked && len(keys) == limit && ks > keys[limit-1] {
			return hasPrefixThrough(ent, lo, []byte(keys[limit-1]))
		}
		fetch := e.tr.begin(kHeapFetch, scan)
		data, err := e.rel.Fetch(tid)
		e.tr.end(fetch)
		if err != nil {
			return true
		}
		if prev, ok := best[ks]; ok {
			if tidLess(prev.tid, tid) {
				best[ks] = cand{tid, data}
			}
			return true
		}
		best[ks] = cand{tid, data}
		i := sort.SearchStrings(keys, ks)
		keys = append(keys, "")
		copy(keys[i+1:], keys[i:])
		keys[i] = ks
		if len(keys) > limit {
			delete(best, keys[limit])
			keys = keys[:limit]
		}
		return true
	})
	e.tr.end(scan)
	if err != nil {
		e.tr.end(op)
		return nil, err
	}
	rows := make([]kvRow, 0, len(keys))
	for _, ks := range keys {
		rows = append(rows, kvRow{key: []byte(ks), val: best[ks].val})
	}
	e.tr.end(op)
	return rows, nil
}

// hasPrefixThrough is session.go's: could a proper prefix of e be a user
// key in [lo, ub]?
func hasPrefixThrough(e, lo, ub []byte) bool {
	for n := 0; n < len(e); n++ {
		p := e[:n]
		if (lo == nil || bytes.Compare(p, lo) >= 0) && bytes.Compare(p, ub) <= 0 {
			return true
		}
	}
	return false
}
