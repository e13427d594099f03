package server

import (
	"bytes"
	"cmp"
	"errors"
	"hash/maphash"
	"slices"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
)

// KV is the store's semantics over one heap relation and its primary index:
// what GET, PUT, MPUT, DEL and SCAN mean. Sessions call it for every verb
// that touches the store and only parse and format around it; tests and
// in-process drivers call it without the wire.
//
// The index holds <user key, TID> made unique POSTGRES-style by appending
// the tuple identifier (core.MakeUnique, §2). A user key therefore owns a
// contiguous run of index entries — one per tuple version — and tuple
// visibility against the status table decides which one is current. Dead
// entries (aborted writers, superseded versions) are tolerated by readers
// and reclaimed by the vacuum, never transactionally.
type KV struct {
	db  *core.DB
	rel *core.Relation
	idx *core.Index
}

// Row is one key and its newest visible value, as Scan returns them.
type Row struct{ Key, Value []byte }

// WithTxn runs fn under tx, or, when tx is nil, under a fresh transaction
// that commits (or aborts on error) around it: a request outside BEGIN.
func (kv *KV) WithTxn(tx *core.Txn, fn func(tx *core.Txn) error) error {
	if tx != nil {
		return fn(tx)
	}
	tx = kv.db.Begin()
	if err := fn(tx); err != nil {
		_ = tx.Abort() // fn's error is the one to report
		return err
	}
	return tx.Commit()
}

// Get returns key's newest visible value; found is false when it has none.
func (kv *KV) Get(key []byte) (val []byte, found bool, err error) {
	_, val, found, err = kv.lookup(key)
	return val, found, err
}

// lookup resolves key to its newest visible version: the resolver below, for
// one key.
func (kv *KV) lookup(key []byte) (heap.TID, []byte, bool, error) {
	r := kv.newResolver([][]byte{key})
	v, err := r.next()
	return v.tid, v.val, v.found, err
}

// fetch appends the tuple at tid to dst if it is visible. A dead or
// invisible version — the invalid keys the §2 bargain lets the index keep —
// is not found, and dst comes back as it was; any other error, such as a heap
// page the pool will not serve, is returned as it is.
func (kv *KV) fetch(dst []byte, tid heap.TID) ([]byte, bool, error) {
	out, err := kv.rel.FetchAppend(dst, tid)
	if errors.Is(err, heap.ErrNoSuchTuple) {
		return dst, false, nil
	}
	return out, err == nil, err
}

// version is what a lookup found of one key: its newest visible version,
// if any.
type version struct {
	tid   heap.TID
	val   []byte
	found bool
}

// newest appends the first visible one of a key's versions, given newest
// first, to dst, and fetches none behind it: the version's value is the
// appended bytes, and dst is returned extended by them. Multiple visible
// versions can exist only under concurrent uncoordinated writers (the engine
// has no write-write locking); the highest TID — the latest heap placement —
// wins deterministically, and in this order it is the first visible one.
func (kv *KV) newest(dst []byte, tids []heap.TID) (version, []byte, error) {
	for _, tid := range tids {
		out, ok, err := kv.fetch(dst, tid)
		if err != nil {
			return version{}, dst, err
		}
		if ok {
			return version{tid, out[len(dst):len(out):len(out)], true}, out, nil
		}
	}
	return version{}, dst, nil
}

// newestFirst orders TIDs from the highest down. The index does not keep a
// key's entries in this order: TID.Bytes is little-endian.
func newestFirst(a, b heap.TID) int {
	if c := cmp.Compare(b.PageNo, a.PageNo); c != 0 {
		return c
	}
	return cmp.Compare(b.Slot, a.Slot)
}

// A resolver finds the newest visible version of each of its keys in turn
// (KV.newest). A nil key is not looked up: its version is not found.
//
// A key's versions are its entries in the index scan that ends at the
// successor of the largest entry the key could own. Every entry in that range
// starts with the key, so what the scan copies out of the leaf is the key's
// versions (and the entries of longer keys that sort among them, told apart
// by their length), not the rest of the leaf.
//
// Many keys are resolved in one windowed pass, W = buffer.ReadWindow keys
// ahead, so that their cold pages are read together rather than one after
// another: the leaves of keys j+1…j+W are hinted before key j's entries are
// collected, each hint covering the keys that fall inside its leaf's bounds;
// the heap page of key j's newest version is hinted once its entries are
// collected; and key j is handed out W keys later, that page having arrived
// meanwhile. A caller that writes as soon as it has a key's version finds the
// old version's page still resident. With one key nothing is hinted: its
// newest version is read at once, and usually no other.
type resolver struct {
	kv     *KV
	heap   *buffer.Pool
	keys   [][]byte
	tids   []heap.TID // the versions collected so far, key after key
	from   []int      // key j's versions are tids[from[j]:from[j+1]]
	end    []byte     // the bound of the key being collected
	lo, hi []byte     // the bounds of the leaf hinted last
	hinted bool
	leaves int // keys whose leaf has been hinted or found covered
	done   int // keys next has handed out
}

// newResolver returns a value, not a pointer, so that a GET's resolver stays
// on the stack: only its slices come from the heap.
func (kv *KV) newResolver(keys [][]byte) resolver {
	return resolver{kv: kv, heap: kv.rel.Heap().Pool(), keys: keys, from: make([]int, 1, len(keys)+1), leaves: 1}
}

// next returns the version of the next key, after moving the window: the
// versions of every key up to W ahead of it are collected.
func (r *resolver) next() (version, error) {
	const w = buffer.ReadWindow
	i := r.done
	for j := len(r.from) - 1; j < len(r.keys) && j <= i+w; j++ {
		r.hintLeaves(j + w)
		if err := r.collect(j); err != nil {
			return version{}, err
		}
	}
	r.done++
	v, _, err := r.kv.newest(nil, r.tids[r.from[i]:r.from[i+1]])
	return v, err
}

// hintLeaves hints the leaves of the keys up to upto that no hint covers yet.
func (r *resolver) hintLeaves(upto int) {
	for ; r.leaves < len(r.keys) && r.leaves <= upto; r.leaves++ {
		k := r.keys[r.leaves]
		if k == nil || r.hinted && bytes.Compare(k, r.lo) >= 0 && (r.hi == nil || bytes.Compare(k, r.hi) < 0) {
			continue
		}
		if lo, hi, ok := r.kv.idx.HintLeaf(k); ok {
			r.lo, r.hi, r.hinted = lo, hi, true
		}
	}
}

// collect scans key j's index entries for its versions, sorts them newest
// first and, when other keys' reads can overlap it, hints the newest one's
// heap page.
func (r *resolver) collect(j int) error {
	if key := r.keys[j]; key != nil {
		r.end = append(slices.Grow(r.end[:0], len(key)+heap.TIDLen+1), key...)
		for range heap.TIDLen {
			r.end = append(r.end, 0xFF)
		}
		r.end = append(r.end, 0)
		err := r.kv.idx.Scan(key, r.end, func(e []byte, tid heap.TID) bool {
			if len(e) == len(key)+heap.TIDLen { // not a longer key's
				r.tids = append(r.tids, tid)
			}
			return true
		})
		if err != nil {
			return err
		}
		if vs := r.tids[r.from[j]:]; len(vs) > 0 {
			slices.SortFunc(vs, newestFirst)
			if len(r.keys) > 1 {
				r.heap.Hint(vs[0].PageNo)
			}
		}
	}
	r.from = append(r.from, len(r.tids))
	return nil
}

// Put writes key=value under tx: an update of the current visible version
// if one exists, an insert otherwise. The new version gets its own index
// entry; the old entry stays behind pointing at the now-dead version, as
// the no-overwrite discipline requires.
func (kv *KV) Put(tx *core.Txn, key, value []byte) error {
	old, _, exists, err := kv.lookup(key)
	if err != nil {
		return err
	}
	var tid heap.TID
	if exists {
		tid, err = kv.rel.Update(tx, old, value)
	} else {
		tid, err = kv.rel.Insert(tx, value)
	}
	if err != nil {
		return err
	}
	return kv.idx.InsertTID(tx, core.MakeUnique(key, tid), tid)
}

// PutBatch is Put over many pairs: the pairs resolve their visible versions
// in one resolver pass and each writes its heap tuple as soon as its version
// is known, then every index entry lands in one InsertTIDBatch. MakeUnique
// appends the tuple's TID, so the batch's index keys are distinct even when
// user keys repeat within it. A repeat cannot resolve its predecessor through
// the index — that entry is not in yet, and the version is not committed —
// so it is not looked up and updates from the TID the batch itself wrote for
// the key: the last value wins and one version is visible after commit.
func (kv *KV) PutBatch(tx *core.Txn, keys, values [][]byte) error {
	ikeys := make([][]byte, len(keys))
	tids := make([]heap.TID, len(keys))
	prior := sameKeyBefore(keys)
	lookup := make([][]byte, len(keys))
	for i, j := range prior {
		if j < 0 {
			lookup[i] = keys[i]
		}
	}
	r := kv.newResolver(lookup)
	for i := range keys {
		v, err := r.next()
		if err != nil {
			return err
		}
		if j := prior[i]; j >= 0 {
			v.tid, v.found = tids[j], true
		}
		var tid heap.TID
		if v.found {
			tid, err = kv.rel.Update(tx, v.tid, values[i])
		} else {
			tid, err = kv.rel.Insert(tx, values[i])
		}
		if err != nil {
			return err
		}
		ikeys[i] = core.MakeUnique(keys[i], tid)
		tids[i] = tid
	}
	return kv.idx.InsertTIDBatch(tx, ikeys, tids)
}

// batchSeed seeds sameKeyBefore's hash; any value does.
var batchSeed = maphash.MakeSeed()

// sameKeyBefore returns, for each key, the index of the nearest earlier
// equal key, or -1. It runs on every MPUT, nearly always to find nothing, so
// it probes one flat table of indexes: 2 allocations and 7 µs on a 500-pair
// load batch, where a map[string] took 504 and 32 µs, 3% of the request.
func sameKeyBefore(keys [][]byte) []int32 {
	size := 1
	for size < 2*len(keys) {
		size <<= 1
	}
	slots := make([]int32, size) // 1 + index of the latest key hashed here; 0 = free
	prior := make([]int32, len(keys))
	for i, k := range keys {
		prior[i] = -1
		at := int(maphash.Bytes(batchSeed, k) & uint64(size-1))
		for ; slots[at] != 0; at = (at + 1) & (size - 1) {
			if j := slots[at] - 1; bytes.Equal(keys[j], k) {
				prior[i] = j
				break
			}
		}
		slots[at] = int32(i + 1)
	}
	return prior
}

// Del stamps key's current visible version dead under tx, reporting whether
// it had one. The index entry remains; visibility filtering hides it once tx
// commits.
func (kv *KV) Del(tx *core.Txn, key []byte) (bool, error) {
	tid, _, exists, err := kv.lookup(key)
	if err != nil || !exists {
		return false, err
	}
	return true, kv.rel.Delete(tx, tid)
}

// Scan walks user keys in [lo, hi) (nil = open bound), resolving each to its
// newest visible version, and returns up to limit rows in key order. The
// rows' keys and values share one buffer, each copied into it once: a key
// from the index entry, a value from the latched heap frame.
//
// A key's entries are all the index holds from key to key‖FF…FF, so they are
// behind the scan once an entry arrives that does not start with key. Until
// then the key is pending, collecting its TIDs; then it is resolved, newest
// first. Entries of the longer keys a key prefixes sort among its own, so
// several keys can be pending at once, each a prefix of the entry in hand.
func (kv *KV) Scan(lo, hi []byte, limit int) ([]Row, error) {
	s := &scanner{kv: kv, lo: lo, hi: hi, limit: limit, rows: make([]Row, 0, min(limit, scanPrealloc))}
	err := kv.idx.ScanAhead(kv.rel, lo, nil, limit, s.visit)
	if err == nil {
		s.settle(nil)
		err = s.err
	}
	if err != nil {
		return nil, err
	}
	return s.rows, nil
}

// scanPrealloc is the most rows a scan sizes its buffers for before it has
// found them.
const scanPrealloc = 128

// scanner is the state of one Scan.
type scanner struct {
	kv     *KV
	lo, hi []byte
	limit  int
	// rows holds the newest visible version of each of the (up to limit)
	// smallest in-range keys resolved so far, in key order. Keys beyond the
	// limit-th are dropped as smaller ones arrive — they can never appear
	// in the result. Each row's key and value are cut from arena with full
	// slice expressions, so that no row can grow into another; a growing
	// arena leaves the rows cut from it before where they were.
	rows  []Row
	arena []byte
	// stop, once rows is full, is the shortest prefix of its last key that
	// is >= lo: see visit.
	stop []byte
	// pending[:n] are the pending keys; the entries after them keep their
	// buffers for the next.
	pending []pendingKey
	n       int
	err     error // the fetch error that ended the scan
}

// pendingKey is an in-range key a scan has met whose entries may still
// follow, and the TIDs of its versions so far.
type pendingKey struct {
	key  []byte
	tids []heap.TID
}

// visit takes the scan's next index entry; false ends the scan.
func (s *scanner) visit(e []byte, tid heap.TID) bool {
	if len(e) < heap.TIDLen {
		return true
	}
	s.settle(e)
	if s.err != nil {
		return false
	}
	key := e[:len(e)-heap.TIDLen]
	inRange := (s.lo == nil || bytes.Compare(key, s.lo) >= 0) &&
		(s.hi == nil || bytes.Compare(key, s.hi) < 0)
	if !inRange {
		// Entries of a user key form the contiguous index range prefixed
		// by that key, but entries of DIFFERENT keys that share a prefix
		// interleave: "a"+tid entries straddle every "a?"+tid run. So an
		// out-of-range entry only ends the scan once no in-range key could
		// still prefix later entries.
		return s.hi == nil || hasInRangePrefix(e, s.lo, s.hi)
	}
	for i := range s.n {
		if p := &s.pending[i]; bytes.Equal(p.key, key) {
			p.tids = append(p.tids, tid)
			return true
		}
	}
	if len(s.rows) == s.limit && bytes.Compare(key, s.rows[s.limit-1].Key) > 0 {
		// The result is full with last key L, and this key sorts past L,
		// so it cannot appear in the first limit rows. Keys are NOT
		// visited in key order (the prefix interleaving above), so this
		// alone does not end the scan: the keys <= L whose entries can
		// still follow e are in-range proper prefixes of e — a prefix
		// key's entry run straddles its extensions' runs, every other
		// key's run is fully behind us. Such a prefix p, lo <= p <= L, is
		// a prefix of L: L is no proper prefix of p, since p <= L; and
		// were they to differ first at byte i, p[i] < L[i] would make
		// e[i] = p[i] < L[i] and so e < L, when e >= key > L. A longer
		// prefix of L sorts after a shorter one, so the prefixes of L that
		// are >= lo are those at least as long as the shortest, stop. So a
		// prefix that keeps the scan going exists iff stop is a proper
		// prefix of e.
		return len(e) > len(s.stop) && bytes.HasPrefix(e, s.stop)
	}
	if s.n == len(s.pending) {
		s.pending = append(s.pending, pendingKey{})
	}
	p := &s.pending[s.n]
	s.n++
	p.key = append(p.key[:0], key...)
	p.tids = append(p.tids[:0], tid)
	return true
}

// settle resolves the pending keys e does not start with, or all of them
// when e is nil.
func (s *scanner) settle(e []byte) {
	kept := 0
	for i := range s.n {
		p := &s.pending[i]
		if e != nil && bytes.HasPrefix(e, p.key) {
			s.pending[kept], s.pending[i] = s.pending[i], s.pending[kept]
			kept++
			continue
		}
		if s.err == nil {
			s.resolve(p)
		}
	}
	s.n = kept
}

// resolve places pending key p's newest visible version among the rows, if
// it has one and the place is within the limit. Keys mostly arrive in key
// order and are appended; a key whose entries sorted among a longer key's
// arrives after it and is inserted.
func (s *scanner) resolve(p *pendingKey) {
	at := len(s.rows)
	if at > 0 && bytes.Compare(p.key, s.rows[at-1].Key) < 0 {
		at, _ = slices.BinarySearchFunc(s.rows, p.key, func(r Row, k []byte) int { return bytes.Compare(r.Key, k) })
	}
	if at == s.limit {
		return
	}
	slices.SortFunc(p.tids, newestFirst)
	start := len(s.arena)
	v, arena, err := s.kv.newest(append(s.arena, p.key...), p.tids)
	if err != nil {
		s.err = err
		return
	}
	if !v.found {
		return
	}
	if start == 0 {
		// The first row: size the arena for a result of rows like it.
		arena = slices.Grow(arena, (min(s.limit, scanPrealloc)-1)*len(arena))
	}
	s.arena = arena
	end, n := start+len(p.key), len(arena)
	row := Row{Key: arena[start:end:end], Value: arena[end:n:n]}
	if at == len(s.rows) {
		s.rows = append(s.rows, row)
	} else {
		s.rows = slices.Insert(s.rows, at, row)
		if len(s.rows) > s.limit {
			s.rows = s.rows[:s.limit]
		}
	}
	if len(s.rows) == s.limit {
		s.stop = shortestPrefixFrom(s.rows[s.limit-1].Key, s.lo)
	}
}

// shortestPrefixFrom returns the shortest prefix of k that is >= lo, given
// k >= lo; with lo nil, the empty one.
func shortestPrefixFrom(k, lo []byte) []byte {
	n := 0
	for lo != nil && bytes.Compare(k[:n], lo) < 0 {
		n++
	}
	return k[:n]
}

// hasInRangePrefix reports whether any proper prefix of index entry e is a
// user key inside [lo, hi) — conservatively, whether such a key COULD
// exist: if one does, its remaining entries may still follow e, so the
// scan must keep going.
func hasInRangePrefix(e, lo, hi []byte) bool {
	for n := 0; n < len(e); n++ {
		p := e[:n]
		if (lo == nil || bytes.Compare(p, lo) >= 0) && bytes.Compare(p, hi) < 0 {
			return true
		}
	}
	return false
}
