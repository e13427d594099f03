package btree

import "sync"

// Per-descent scratch state. The point operations (Lookup, Insert,
// InsertBatch) are the hot paths of the whole system, and profiling showed
// their only steady-state allocations were bookkeeping buffers: the cloned
// child-range bounds taken at every internal level, and the path slice of
// the descents that keep their path. Both now come from sync.Pools, so a
// warm point op allocates nothing.
//
// Ownership rules:
//
//   - A descentScratch is borrowed for the duration of ONE leaf-only descent
//     plus whatever the caller does with the returned bounds; the leaf's
//     lo/hi returned by descend alias the scratch and die with putDescent. Callers that persist a bound past the release (the scan
//     cursor does) must clone it first.
//   - The bounds are double-buffered: childRange may return the parent's
//     own bounds unchanged, so each level stages into the buffer pair the
//     previous level is NOT using, then flips.
//   - Path slices from newPath are returned with putPath, which clears the
//     entries (they hold frame pointers) before pooling. releasePath both
//     unpins and pools; callers must not touch the slice afterwards.

// descentScratch carries the staged child-range bounds for one leaf-only
// root-to-leaf descent.
type descentScratch struct {
	lo   [2][]byte
	hi   [2][]byte
	flip int
}

var descentPool = sync.Pool{New: func() any { return new(descentScratch) }}

func getDescent() *descentScratch {
	s := descentPool.Get().(*descentScratch)
	s.flip = 0
	return s
}

func putDescent(s *descentScratch) { descentPool.Put(s) }

// stage copies the child bounds out of the latched parent page (or out of
// the scratch buffers the parent level staged into) before the latch
// drops. nil bounds stay nil: downstream range checks distinguish
// "unbounded" by nil-ness.
func (s *descentScratch) stage(cLo, cHi []byte) (lo, hi []byte) {
	i := s.flip & 1
	s.flip++
	if cLo != nil {
		s.lo[i] = append(s.lo[i][:0], cLo...)
		lo = s.lo[i]
	}
	if cHi != nil {
		s.hi[i] = append(s.hi[i][:0], cHi...)
		hi = s.hi[i]
	}
	return lo, hi
}

// unstage hands the buffer pair stage filled last back to the next stage:
// the level is selected again (a repair dropped the entry it followed), and
// the other pair still holds the bounds of the page it is selected from.
func (s *descentScratch) unstage() { s.flip-- }

// Path-slice pool for the descents that keep their path. maxSharedDepth
// bounds the descent, so a pooled slice never regrows.
var pathPool = sync.Pool{New: func() any {
	s := make([]pathEntry, 0, maxSharedDepth)
	return &s
}}

func newPath() []pathEntry { return (*pathPool.Get().(*[]pathEntry))[:0] }

// putPath recycles a path slice WITHOUT unpinning anything; the caller has
// already transferred or released the pins. Entries are cleared so pooled
// slices do not retain frame references.
func putPath(path []pathEntry) {
	if cap(path) < maxSharedDepth {
		return // not from the pool (or grew oddly); let the GC have it
	}
	path = path[:cap(path)]
	for i := range path {
		path[i] = pathEntry{}
	}
	path = path[:0]
	pathPool.Put(&path)
}
