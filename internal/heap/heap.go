// Package heap implements a POSTGRES-style no-overwrite heap relation
// (Stonebraker, VLDB 1987 — the paper's reference [13]).
//
// Tuples are never updated in place: an update writes a new version and
// stamps the old one's xmax. Every tuple header carries the transaction
// IDs that created (xmin) and invalidated (xmax) it; visibility is decided
// against the transaction status table at read time, so after a crash the
// DBMS simply ignores tuples created by transactions that never committed —
// no log processing, which is the storage-system property the paper's index
// techniques were built to match ("The POSTGRES storage system can detect
// and ignore records pointed to by invalid keys, so recovery only needs to
// ensure that valid keys are not lost", §2).
package heap

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// TID is a tuple identifier: a heap page number and a line-table slot —
// exactly the <data page, line table entry> pointer the paper's leaf keys
// hold (§3.1).
type TID struct {
	PageNo storage.PageNo
	Slot   uint16
}

// TIDLen is the length of an encoded TID, and so of the suffix
// core.MakeUnique appends to a key.
const TIDLen = 6

// Bytes encodes the TID in TIDLen bytes for storage in an index leaf.
func (t TID) Bytes() []byte {
	b := [TIDLen]byte{
		byte(t.PageNo), byte(t.PageNo >> 8), byte(t.PageNo >> 16), byte(t.PageNo >> 24),
		byte(t.Slot), byte(t.Slot >> 8),
	}
	return b[:]
}

// ParseTID decodes a TIDLen-byte TID.
func ParseTID(b []byte) (TID, error) {
	if len(b) != TIDLen {
		return TID{}, fmt.Errorf("heap: TID of %d bytes", len(b))
	}
	return TID{
		PageNo: uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24,
		Slot:   uint16(b[4]) | uint16(b[5])<<8,
	}, nil
}

func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.PageNo, t.Slot) }

// XID is a transaction identifier. XID 0 means "never" (no deleter);
// XID 1 is the bootstrap transaction, always committed.
type XID uint64

// Tuple header layout within a heap item:
//
//	xmin  u64 — creating transaction
//	xmax  u64 — invalidating transaction (0 = live)
//	data  ... — opaque tuple bytes
const tupleHeaderSize = 16

// ErrNoSuchTuple is returned for TIDs that name no tuple.
var ErrNoSuchTuple = errors.New("heap: no such tuple")

// ErrAlreadyDeleted is returned by Delete and Update for a version whose
// xmax names a transaction that is live or committed: another transaction
// deleted it first. The error reads "heap: tuple <tid> already deleted by
// txn <xid>".
var ErrAlreadyDeleted = errors.New("already deleted")

// StatusChecker reports whether a transaction is known committed. The
// transaction manager implements it; tests may substitute fakes.
type StatusChecker interface {
	Committed(x XID) bool
}

// TxnStatus reports whether a transaction is over without having committed:
// it aborted, failed its commit, or died in a crash. The answer must be read
// in one step — a transaction is committed or still running at every moment
// of its commit, but a reader that asked "committed?" and then "running?"
// could fall between the two. The transaction manager implements it.
type TxnStatus interface {
	Aborted(x XID) bool
}

// Relation is one no-overwrite heap file. Page 0 is a meta page holding
// only the page count hint; tuples live on pages 1..N.
type Relation struct {
	pool *buffer.Pool

	mu       sync.Mutex
	lastPage storage.PageNo // page currently receiving inserts
}

// Open opens (creating if empty) a heap relation on disk.
func Open(disk storage.Disk, poolSize int) (*Relation, error) {
	r := &Relation{pool: buffer.NewPool(disk, poolSize)}
	f, err := r.pool.Get(0)
	if err != nil {
		return nil, err
	}
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
		f.MarkDirty()
	}
	f.Unpin()
	if n := disk.NumPages(); n > 1 {
		r.lastPage = n - 1
	}
	return r, nil
}

// Pool exposes the buffer pool (for sync orchestration by the txn layer).
func (r *Relation) Pool() *buffer.Pool { return r.pool }

// Sync forces all modified heap pages to stable storage.
func (r *Relation) Sync() error { return r.pool.SyncAll() }

// Close forces the relation like Sync, after joining the reads that hints
// to its pool started: the caller is free to close the disk next.
func (r *Relation) Close() error {
	r.pool.StopHints()
	return r.Sync()
}

// Insert appends a new tuple version created by xid and returns its TID.
func (r *Relation) Insert(xid XID, data []byte) (TID, error) {
	if len(data) > page.Size/4 {
		return TID{}, fmt.Errorf("heap: tuple of %d bytes too large", len(data))
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	item := make([]byte, tupleHeaderSize+len(data))
	putXID(item[0:], xid)
	putXID(item[8:], 0)
	copy(item[tupleHeaderSize:], data)

	for {
		no := r.lastPage
		if no == 0 {
			no = 1
			r.lastPage = 1
		}
		f, err := r.pool.Get(no)
		if err != nil {
			return TID{}, err
		}
		// r.mu orders heap writers, but the frame write latch is still
		// required: a concurrent commit's flush reads frames under RLatch.
		f.WLatch()
		if f.Data.IsZeroed() {
			f.Data.Init(page.TypeHeap, 0)
		}
		if f.Data.CanFit(len(item)) {
			slot := f.Data.NKeys()
			off, err := f.Data.AddItem(item)
			if err != nil {
				f.WUnlatch()
				f.Unpin()
				return TID{}, err
			}
			if err := f.Data.InsertSlot(slot, off); err != nil {
				f.WUnlatch()
				f.Unpin()
				return TID{}, err
			}
			f.MarkDirty()
			f.WUnlatch()
			f.Unpin()
			return TID{PageNo: no, Slot: uint16(slot)}, nil
		}
		f.WUnlatch()
		f.Unpin()
		r.lastPage = no + 1
	}
}

// Fetch returns the raw tuple data at tid if it is visible: created by a
// committed transaction and not deleted by one. Invisible tuples — in
// particular those created by transactions that died in a crash — are
// reported as ErrNoSuchTuple, which is how the heap "detects and ignores
// records pointed to by invalid keys" (§2).
func (r *Relation) Fetch(tid TID, status StatusChecker) ([]byte, error) {
	return r.FetchAppend(nil, tid, status)
}

// FetchAppend is Fetch that appends the tuple data to dst and returns the
// extended slice: the data is copied once, from the latched frame, and dst
// is returned unchanged when the tuple is invisible or missing.
func (r *Relation) FetchAppend(dst []byte, tid TID, status StatusChecker) ([]byte, error) {
	err := r.readItem(tid, func(item []byte) error {
		xmin, xmax := getXID(item[0:]), getXID(item[8:])
		if !status.Committed(xmin) {
			return fmt.Errorf("%w: %v created by uncommitted txn %d", ErrNoSuchTuple, tid, xmin)
		}
		if xmax != 0 && status.Committed(xmax) {
			return fmt.Errorf("%w: %v deleted by txn %d", ErrNoSuchTuple, tid, xmax)
		}
		dst = append(dst, item[tupleHeaderSize:]...)
		return nil
	})
	return dst, err
}

// FetchAsOf returns the tuple data visible to a historical snapshot: the
// version must have been created by a transaction committed with ID <= asOf
// and not deleted by one with ID <= asOf. This is the time-travel access
// path POSTGRES keeps historical data for.
func (r *Relation) FetchAsOf(tid TID, status StatusChecker, asOf XID) ([]byte, error) {
	var out []byte
	err := r.readItem(tid, func(item []byte) error {
		xmin, xmax := getXID(item[0:]), getXID(item[8:])
		if xmin > asOf || !status.Committed(xmin) {
			return fmt.Errorf("%w: %v not yet created as of %d", ErrNoSuchTuple, tid, asOf)
		}
		if xmax != 0 && xmax <= asOf && status.Committed(xmax) {
			return fmt.Errorf("%w: %v already deleted as of %d", ErrNoSuchTuple, tid, asOf)
		}
		out = append(out, item[tupleHeaderSize:]...)
		return nil
	})
	return out, err
}

// Delete stamps the tuple's xmax with xid (no-overwrite: the version stays
// until the vacuum archives it). An xmax already there is replaced when its
// transaction aborted or died in a crash, since the version is current again.
// Otherwise the tuple is deleted, or being deleted, and Delete fails.
func (r *Relation) Delete(tid TID, xid XID, status TxnStatus) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.pool.Get(tid.PageNo)
	if err != nil {
		return err
	}
	defer f.Unpin()
	f.WLatch()
	defer f.WUnlatch()
	item, err := r.itemAt(f, tid)
	if err != nil {
		return err
	}
	if old := getXID(item[8:]); old != 0 && !status.Aborted(old) {
		return fmt.Errorf("heap: tuple %v %w by txn %d", tid, ErrAlreadyDeleted, old)
	}
	putXID(item[8:], xid)
	f.MarkDirty()
	return nil
}

// Update writes a new version created by xid, stamps the old one's xmax as
// Delete does, and returns the new TID.
func (r *Relation) Update(tid TID, xid XID, data []byte, status TxnStatus) (TID, error) {
	if err := r.Delete(tid, xid, status); err != nil {
		return TID{}, err
	}
	return r.Insert(xid, data)
}

// MarkDead permanently invalidates a tuple version during a vacuum sweep:
// its xmin becomes 0 (never committed), so no reader — current or
// historical — will ever see it again. The slot itself is preserved so that
// TIDs of neighboring tuples stay stable; the space is accounted dead until
// the relation is rewritten.
func (r *Relation) MarkDead(tid TID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.pool.Get(tid.PageNo)
	if err != nil {
		return err
	}
	defer f.Unpin()
	f.WLatch()
	defer f.WUnlatch()
	item, err := r.itemAt(f, tid)
	if err != nil {
		return err
	}
	putXID(item[0:], 0)
	f.MarkDirty()
	return nil
}

// Header returns the tuple's xmin and xmax regardless of visibility.
func (r *Relation) Header(tid TID) (xmin, xmax XID, err error) {
	err = r.readItem(tid, func(item []byte) error {
		xmin, xmax = getXID(item[0:]), getXID(item[8:])
		return nil
	})
	return xmin, xmax, err
}

// ScanAll visits every tuple version in the relation (visible or not),
// calling fn with its TID, header, and data. The vacuum uses it. Each
// page's tuples are copied out under the frame's read latch before fn
// runs, so fn may safely call back into the relation (Fetch, Delete, ...)
// and may retain the data slice.
func (r *Relation) ScanAll(fn func(tid TID, xmin, xmax XID, data []byte) bool) error {
	n := r.NumPages()
	for no := storage.PageNo(1); no < n; no++ {
		f, err := r.pool.Get(no)
		if err != nil {
			return err
		}
		type itemCopy struct {
			slot uint16
			data []byte
		}
		var items []itemCopy
		f.RLatch()
		if f.Data.Valid() && f.Data.Type() == page.TypeHeap {
			for s := 0; s < f.Data.NKeys(); s++ {
				item := f.Data.Item(s)
				if item == nil || len(item) < tupleHeaderSize {
					continue
				}
				items = append(items, itemCopy{uint16(s), append([]byte(nil), item...)})
			}
		}
		f.RUnlatch()
		f.Unpin()
		for _, it := range items {
			cont := fn(TID{PageNo: no, Slot: it.slot},
				getXID(it.data[0:]), getXID(it.data[8:]), it.data[tupleHeaderSize:])
			if !cont {
				return nil
			}
		}
	}
	return nil
}

// NumPages reports the relation's size in pages.
func (r *Relation) NumPages() storage.PageNo {
	n := r.pool.Disk().NumPages()
	r.mu.Lock()
	if r.lastPage+1 > n {
		n = r.lastPage + 1
	}
	r.mu.Unlock()
	return n
}

// readItem calls fn with the item at tid, under the frame's read latch: fn
// must copy what it keeps. A page the pool will not serve (a quarantined one,
// a failed read) is an error of its own, not a missing tuple; a page past the
// end of the file is served zeroed and so names none.
func (r *Relation) readItem(tid TID, fn func(item []byte) error) error {
	f, err := r.pool.Get(tid.PageNo)
	if err != nil {
		return fmt.Errorf("heap: tuple %v: %w", tid, err)
	}
	defer f.Unpin()
	f.RLatch()
	defer f.RUnlatch()
	item, err := r.itemAt(f, tid)
	if err != nil {
		return err
	}
	return fn(item)
}

func (r *Relation) itemAt(f *buffer.Frame, tid TID) ([]byte, error) {
	if !f.Data.Valid() || f.Data.Type() != page.TypeHeap {
		return nil, fmt.Errorf("%w: %v on non-heap page", ErrNoSuchTuple, tid)
	}
	if int(tid.Slot) >= f.Data.NKeys() {
		return nil, fmt.Errorf("%w: %v slot out of range", ErrNoSuchTuple, tid)
	}
	item := f.Data.Item(int(tid.Slot))
	if item == nil || len(item) < tupleHeaderSize {
		return nil, fmt.Errorf("%w: %v malformed", ErrNoSuchTuple, tid)
	}
	return item, nil
}

func putXID(b []byte, x XID) {
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
}

func getXID(b []byte) XID {
	var x XID
	for i := 0; i < 8; i++ {
		x |= XID(b[i]) << (8 * i)
	}
	return x
}
