package buffer

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// awaitHints returns once no hinted read of p is in flight.
func awaitHints(p *Pool) {
	p.hints.mu.Lock()
	p.hints.awaitIdleLocked()
	p.hints.mu.Unlock()
}

// frameOf returns the frame cached for page no, or nil.
func frameOf(p *Pool, no storage.PageNo) *Frame {
	pt := p.part(no)
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.frames[no]
}

// readCounter counts the device reads started.
type readCounter struct {
	storage.Disk
	reads atomic.Int64
}

func (d *readCounter) ReadPage(no storage.PageNo, buf page.Page) error {
	d.reads.Add(1)
	return d.Disk.ReadPage(no, buf)
}

// awaitGoroutines fails the test unless the goroutine count falls back to
// before.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestHintReadsAhead: a hint brings an absent page in with one device read,
// the Get that follows is a hit that waits for nothing else, and neither the
// hint nor that first Get is a reference.
func TestHintReadsAhead(t *testing.T) {
	d := &readCounter{Disk: primeDisk(t, 64)}
	rec := obs.New(0)
	p := NewPool(d, 32)
	p.SetObs(rec)
	p.Hint(5)
	awaitHints(p)
	f := frameOf(p, 5)
	if f == nil || f.hint.Load() != hintFresh || f.ref.Load() || f.pins.Load() != 0 {
		t.Fatalf("hinted frame: %+v", f)
	}
	if got, err := p.Get(5); err != nil || got != f || got.Data.SyncToken() != 5 {
		t.Fatalf("Get after the hint: frame %p (hinted %p), err %v", got, f, err)
	}
	if f.ref.Load() || f.hint.Load() != hintNone {
		t.Fatal("the Get that takes a hinted frame over must leave it unreferenced, like the miss it replaces")
	}
	f.Unpin()
	if hits, misses := p.Stats(); hits != 1 || misses != 0 || d.reads.Load() != 1 {
		t.Fatalf("hits %d misses %d reads %d; want 1, 0, 1", hits, misses, d.reads.Load())
	}
	touch(t, p, 5)
	if !f.ref.Load() {
		t.Fatal("the second Get is a reference")
	}
	if rec.Get(obs.HintIssued) != 1 || rec.Get(obs.HintDropped) != 0 || rec.Get(obs.HintWasted) != 0 {
		t.Fatalf("counters: %v", rec.Snapshot().Counters)
	}
}

// TestHintResidentIsFree: a hint for a resident page allocates nothing,
// starts no goroutine, reads nothing and counts nothing.
func TestHintResidentIsFree(t *testing.T) {
	d := &readCounter{Disk: primeDisk(t, 64)}
	rec := obs.New(0)
	p := NewPool(d, 32)
	p.SetObs(rec)
	touch(t, p, 7)
	reads, before := d.reads.Load(), runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(100, func() { p.Hint(7) }); allocs != 0 {
		t.Fatalf("%v allocations per resident hint", allocs)
	}
	if p.hints.inflight != 0 || runtime.NumGoroutine() > before || d.reads.Load() != reads {
		t.Fatalf("resident hints started work: %d in flight, reads %d -> %d", p.hints.inflight, reads, d.reads.Load())
	}
	if len(rec.Snapshot().Counters) != 0 {
		t.Fatalf("resident hints counted: %v", rec.Snapshot().Counters)
	}
}

// gatedDisk holds every read back until release is closed.
type gatedDisk struct {
	storage.Disk
	release chan struct{}
}

func (d *gatedDisk) ReadPage(no storage.PageNo, buf page.Page) error {
	<-d.release
	return d.Disk.ReadPage(no, buf)
}

// TestHintBounds: with every read held back, a pool admits ReadWindow
// hints and a stripe a quarter of its quota; the rest are dropped and
// counted, and a Get of a page whose hint is in flight waits for that read
// instead of issuing its own.
func TestHintBounds(t *testing.T) {
	d := &gatedDisk{Disk: primeDisk(t, 512), release: make(chan struct{})}
	rec := obs.New(0)
	p := NewPool(d, 256) // 16 stripes of 16
	p.SetObs(rec)
	// Pages 16, 32, ... share stripe 0, which lends a quarter of 16 frames.
	p.Hint(16)
	for deadline := time.Now().Add(5 * time.Second); frameOf(p, 16) == nil; {
		if time.Now().After(deadline) {
			t.Fatal("the hint never installed its frame")
		}
		runtime.Gosched()
	}
	for i := 2; i <= 6; i++ {
		p.Hint(storage.PageNo(16 * i))
	}
	for deadline := time.Now().Add(5 * time.Second); p.parts[0].hinting.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("stripe 0 holds %d hinted frames, want 4", p.parts[0].hinting.Load())
		}
		runtime.Gosched()
	}
	// Six were admitted by the pool (two of them found their stripe full and
	// gave up); one page per other stripe now, until the pool is full.
	for no := storage.PageNo(1); no <= 10; no++ {
		p.Hint(no)
	}
	if issued, dropped := rec.Get(obs.HintIssued), rec.Get(obs.HintDropped); issued+dropped != 16 || dropped < 10-(ReadWindow-4) {
		t.Fatalf("issued %d dropped %d of 16 hints", issued, dropped)
	}
	got := make(chan *Frame)
	go func() {
		f, err := p.Get(16)
		if err != nil {
			t.Error(err)
		}
		got <- f
	}()
	select {
	case <-got:
		t.Fatal("Get returned while the hinted read of its page was held back")
	case <-time.After(20 * time.Millisecond):
	}
	close(d.release)
	f := <-got
	if f == nil || f.Data.SyncToken() != 16 {
		t.Fatal("Get after the hinted read: wrong page")
	}
	f.Unpin()
	awaitHints(p)
	if _, misses := p.Stats(); misses != 0 {
		t.Fatalf("%d misses: the Get read the page itself", misses)
	}
	for _, pt := range p.parts {
		if pt.hinting.Load() != 0 {
			t.Fatal("a stripe still counts a hinted read in flight")
		}
	}
}

// TestHintWastedCounted: a frame read ahead and evicted before any Get is
// counted as a wasted read, and one that was asked for is not.
func TestHintWastedCounted(t *testing.T) {
	rec := obs.New(0)
	p := NewPool(primeDisk(t, 128), 16)
	p.SetObs(rec)
	p.Hint(100)
	awaitHints(p)
	p.Hint(101)
	awaitHints(p)
	touch(t, p, 101)
	for no := storage.PageNo(0); no < 40; no++ {
		touch(t, p, no)
	}
	if frameOf(p, 100) != nil || frameOf(p, 101) != nil {
		t.Fatal("the hinted frames outlived 40 misses in a 16-frame pool")
	}
	if w := rec.Get(obs.HintWasted); w != 1 {
		t.Fatalf("hint.wasted = %d, want 1", w)
	}
}

// hintFaultStore builds a fault disk holding pages 0..7 and damages it the
// same way every time: page 1 fails its checksum, page 2 sits on a bad
// sector, page 3 is quarantined in the returned pool, and page 40 is past the
// end of the file.
func hintFaultStore(t *testing.T) (*Pool, *obs.Recorder) {
	t.Helper()
	p, d := newFaultPool(t, storage.FaultConfig{})
	for no := storage.PageNo(0); no < 8; no++ {
		writePage(t, p, no, byte(no+1))
	}
	p.InvalidateAll()
	if !d.CorruptStable(1, func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatal("no durable image to corrupt")
	}
	d.AddBadSector(2)
	p.QuarantinePage(3, "test", false)
	rec := obs.New(0)
	p.SetObs(rec)
	return p, rec
}

// TestHintHasNoSideEffectsOnFailure: hinting a page with a bad checksum, one
// on a bad sector, one past the end of the file and one in quarantine changes
// no quarantine entry, no fault counter and no event, and leaves no frame;
// the demand Gets that follow classify every page exactly as they do in a
// pool that was never hinted.
func TestHintHasNoSideEffectsOnFailure(t *testing.T) {
	damaged := []storage.PageNo{1, 2, 3, 40}
	type outcome struct {
		Zeroed      bool
		Quarantined bool
	}
	classify := func(p *Pool) (out []outcome) {
		for _, no := range damaged {
			f, err := p.Get(no)
			if err != nil {
				out = append(out, outcome{Quarantined: errors.Is(err, ErrQuarantined)})
				continue
			}
			out = append(out, outcome{Zeroed: f.Data.IsZeroed()})
			f.Unpin()
		}
		return out
	}

	control, controlRec := hintFaultStore(t)
	want := classify(control)

	p, rec := hintFaultStore(t)
	quarantined := p.Quarantine().List()
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ { // three would make a quarantine streak
		for _, no := range damaged {
			p.Hint(no)
		}
		awaitHints(p)
	}
	awaitGoroutines(t, before)
	if got := p.Quarantine().List(); !reflect.DeepEqual(got, quarantined) {
		t.Fatalf("quarantine moved under hints: %+v -> %+v", quarantined, got)
	}
	if p.Quarantine().streakN.Load() != 0 {
		t.Fatal("hints counted toward a zero-route streak")
	}
	snap := rec.Snapshot()
	if len(snap.Events) != 0 || len(snap.Counters) != 1 || snap.Counters["hint.issued"] != 6 {
		// Pages 1 and 2 are read (and dropped) three times each; the page past
		// the end of the file and the quarantined one are not even tried.
		t.Fatalf("hints left a trace: counters %v, events %v", snap.Counters, snap.Events)
	}
	for _, no := range damaged {
		if frameOf(p, no) != nil {
			t.Fatalf("a failed hint left a frame for page %d", no)
		}
	}

	if got := classify(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("demand reads after hints classify %+v, without hints %+v", got, want)
	}
	got, ctl := rec.Snapshot(), controlRec.Snapshot()
	delete(got.Counters, "hint.issued")
	if !reflect.DeepEqual(got, ctl) {
		t.Fatalf("events and counters after the demand reads:\nwith hints    %+v\nwithout hints %+v", got, ctl)
	}
}

// TestHintFailureRacingGet: a Get that finds the frame of a hinted read in
// flight, and whose read then fails, does not see the dead frame: it reads
// the page itself and classifies it as any miss would.
func TestHintFailureRacingGet(t *testing.T) {
	p, rec := hintFaultStore(t)
	gate := &gatedDisk{Disk: p.disk, release: make(chan struct{})}
	p.disk = gate
	p.Hint(1)
	for deadline := time.Now().Add(5 * time.Second); frameOf(p, 1) == nil; {
		if time.Now().After(deadline) {
			t.Fatal("the hint never installed its frame")
		}
		runtime.Gosched()
	}
	hinted := frameOf(p, 1)
	got := make(chan *Frame)
	go func() {
		f, err := p.Get(1)
		if err != nil {
			t.Error(err)
		}
		got <- f
	}()
	for deadline := time.Now().Add(5 * time.Second); hinted.pins.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the Get never pinned the hinted frame")
		}
		runtime.Gosched()
	}
	close(gate.release)
	f := <-got
	if f == nil || f == hinted || !f.Data.IsZeroed() || f.hint.Load() != hintNone {
		t.Fatalf("Get returned %p (hinted %p)", f, hinted)
	}
	f.Unpin()
	awaitHints(p)
	if n := rec.Get(obs.ZeroRoute); n != 1 || frameOf(p, 1) != f {
		t.Fatalf("the demand read did not zero-route the page: io.zeroroute = %d", n)
	}
	if hinted.pins.Load() != 0 {
		t.Fatalf("the dead frame is still pinned %d times", hinted.pins.Load())
	}
}

// TestHintLifecycle: with hinted reads outstanding on a slow device,
// InvalidateAll joins them instead of meeting their pins, the pool goes on
// taking hints, and StopHints joins what is in flight and turns later hints
// into nothing; no goroutine is left.
func TestHintLifecycle(t *testing.T) {
	mem := primeDisk(t, 256)
	mem.SetLatency(50*time.Microsecond, 0)
	d := &readCounter{Disk: mem}
	before := runtime.NumGoroutine()
	p := NewPool(d, 256)
	hintSome := func(from storage.PageNo) {
		for no := from; no < from+ReadWindow; no++ {
			p.Hint(no)
		}
	}
	hintSome(1)
	p.InvalidateAll()
	if p.hints.inflight != 0 {
		t.Fatal("InvalidateAll returned with hinted reads in flight")
	}
	hintSome(1)
	p.StopHints()
	if p.hints.inflight != 0 {
		t.Fatal("StopHints returned with hinted reads in flight")
	}
	reads := d.reads.Load()
	if reads != 2*ReadWindow {
		t.Fatalf("%d reads for %d hints", reads, 2*ReadWindow)
	}
	hintSome(100)
	awaitGoroutines(t, before)
	if d.reads.Load() != reads || frameOf(p, 100) != nil {
		t.Fatal("a hint after StopHints read a page")
	}
	p.InvalidateAll()
}
