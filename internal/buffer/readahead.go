package buffer

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Read-ahead. A request that already knows which pages it will need next — a
// scan holding a leaf's right-peer pointer and its TIDs, a lookup holding two
// versions of a key — tells the pool with Hint, and the pool reads them while
// the request works on what it has, so one request's cold reads overlap
// instead of queueing behind one another.
//
// A hint is advice, and nothing else:
//
//   - A resident page costs one stripe read-lock lookup: no goroutine, no
//     allocation, no counter.
//   - At most ReadWindow hinted reads are in flight per pool, and a stripe
//     lends them a quarter of its frames; a hint beyond either is dropped.
//   - A hint is not a reference. The frame it installs has its reference bit
//     clear, and the first Get to take it over leaves it clear, exactly as the
//     miss that Get would otherwise have been: only a second Get can earn the
//     frame a second chance or, later, the protected segment.
//   - A hint that fails — read error, checksum mismatch, page past the end of
//     the file, quarantined page — leaves no trace: one read attempt, no
//     retry, no zero-routing, no quarantine streak, no counter, no event, no
//     frame. The caller may be holding a stale pointer (a peer link that a
//     crash left behind names whatever page it likes), so the page is
//     classified only by a demand Get, which runs as if the hint had never
//     been made.
//
// The read fills a frame that is already published and pinned, under its
// write latch, as a miss in Get does. A Get that finds such a frame waits for
// the latch and takes the frame over; if the read failed, the frame is gone
// from the stripe by the time the latch is released and the Get starts again
// as a miss.

// The values of Frame.hint.
const (
	hintNone    uint32 = iota // not a hinted frame, or taken over by a Get
	hintFilling               // the hint's read is in flight, under the write latch
	hintFresh                 // read ahead; no Get has asked for it yet
	hintFailed                // the read failed and the frame is unpublished
)

// hintGate counts the hinted reads in flight, so that they can be bounded
// and, before the pool's frames or its disk go away, joined.
type hintGate struct {
	mu       sync.Mutex
	idle     sync.Cond // inflight fell to zero; L is &mu
	inflight int
	stopped  bool
}

// enter admits one more hinted read unless the gate is stopped or full.
func (g *hintGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped || g.inflight >= ReadWindow {
		return false
	}
	g.inflight++
	return true
}

func (g *hintGate) leave() {
	g.mu.Lock()
	if g.inflight--; g.inflight == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// awaitIdleLocked returns, with g.mu held as it was on entry, once no hinted
// read is in flight.
func (g *hintGate) awaitIdleLocked() {
	for g.inflight > 0 {
		g.idle.Wait()
	}
}

// Hint starts reading page no into the pool if it is not there, and returns
// without waiting for it. It never fails and never blocks on the device: see
// the contract at the top of this file.
func (p *Pool) Hint(no storage.PageNo) {
	pt := p.part(no)
	pt.mu.RLock()
	_, resident := pt.frames[no]
	pt.mu.RUnlock()
	if resident || no >= p.disk.NumPages() || p.quarantine.IsQuarantined(no) {
		return
	}
	if !p.hints.enter() {
		p.rec().Count(obs.HintDropped)
		return
	}
	p.rec().Count(obs.HintIssued)
	go p.readAhead(pt, no)
}

// StopHints turns every later Hint into a no-op and returns once the reads
// of earlier ones have finished. Whoever is about to take the pool's disk
// away, or to drop the pool with frames still cached, calls it first.
func (p *Pool) StopHints() {
	p.hints.mu.Lock()
	p.hints.stopped = true
	p.hints.awaitIdleLocked()
	p.hints.mu.Unlock()
}

// readAhead is the goroutine of one admitted hint.
func (p *Pool) readAhead(pt *partition, no storage.PageNo) {
	defer p.hints.leave()
	f := pt.installHinted(no)
	if f == nil {
		return
	}
	if err := p.disk.ReadPage(no, f.Data); err == nil && f.Data.ChecksumOK() {
		p.quarantine.noteCleanRead(no)
		f.hint.Store(hintFresh)
	} else {
		f.hint.Store(hintFailed)
		pt.mu.Lock()
		f.valid = false
		if pt.frames[no] == f { // unless Drop or Remap already replaced it
			delete(pt.frames, no)
		}
		pt.unlistLocked(f)
		pt.mu.Unlock()
	}
	pt.hinting.Add(-1)
	f.latch.Unlock()
	f.Unpin()
}

// installHinted publishes a pinned, write-latched frame for a hinted read of
// page no, or returns nil when the page has arrived meanwhile or the stripe
// has no frame to lend.
func (pt *partition) installHinted(no storage.PageNo) *Frame {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for {
		if _, ok := pt.frames[no]; ok || int(pt.hinting.Load()) >= pt.quota/4 {
			return nil
		}
		dropped, err := pt.ensureRoomLocked()
		if err != nil {
			return nil // the demand Get that hits the same wall reports it
		}
		if !dropped {
			break
		}
	}
	f := pt.installFrameLocked(no)
	f.hint.Store(hintFilling)
	f.latch.Lock()
	pt.hinting.Add(1)
	return f
}

// awaitHint is the rest of a Get (or NewPage) that found f resident, pinned
// it, and saw that a Hint brought it in. It waits out the read if that is
// still in flight. True means the frame is the caller's, as from any hit;
// false means the read failed: the pin is dropped, the frame is no longer in
// its stripe, and the caller starts over.
func (f *Frame) awaitHint() bool {
	if f.hint.Load() == hintFilling {
		f.latch.RLock()
		f.latch.RUnlock()
	}
	switch f.hint.Load() {
	case hintFailed:
		f.Unpin()
		return false
	case hintFresh:
		if f.hint.CompareAndSwap(hintFresh, hintNone) {
			return true // what would have been the miss: not a reference
		}
	}
	f.ref.Store(true)
	return true
}
