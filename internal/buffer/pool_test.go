package buffer

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

func newPoolDisk(capacity int) (*Pool, *storage.MemDisk) {
	d := storage.NewMemDisk()
	return NewPool(d, capacity), d
}

func TestGetMissReadsFromDisk(t *testing.T) {
	p, d := newPoolDisk(8)
	img := page.New()
	img.Init(page.TypeLeaf, 0)
	img.SetSyncToken(77)
	if err := d.WritePage(2, img); err != nil {
		t.Fatal(err)
	}
	f, err := p.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	if f.Data.SyncToken() != 77 {
		t.Fatal("frame did not load disk contents")
	}
	if f.PageNo() != 2 {
		t.Fatalf("PageNo = %d", f.PageNo())
	}
}

func TestGetHitReturnsSameFrame(t *testing.T) {
	p, _ := newPoolDisk(8)
	f1, err := p.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("hit must return the cached frame")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
	f1.Unpin()
	f2.Unpin()
}

func TestGetBeyondEOFReturnsZeroPage(t *testing.T) {
	p, _ := newPoolDisk(8)
	f, err := p.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	if !f.Data.IsZeroed() {
		t.Fatal("page beyond EOF must be zeroed")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p, _ := newPoolDisk(2)
	f0, _ := p.NewPage(0)
	f1, _ := p.NewPage(1)
	// Both pinned: a third page cannot be brought in.
	if _, err := p.Get(2); err == nil {
		t.Fatal("get must fail when every frame is pinned")
	}
	f0.Unpin()
	f2, err := p.Get(2)
	if err != nil {
		t.Fatalf("eviction of unpinned frame failed: %v", err)
	}
	f2.Unpin()
	f1.Unpin()
}

func TestEvictionWritesDirtyPage(t *testing.T) {
	p, d := newPoolDisk(1)
	f0, _ := p.NewPage(0)
	f0.Data.Init(page.TypeLeaf, 0)
	f0.Data.SetSyncToken(123)
	f0.MarkDirty()
	f0.Unpin()
	// Bringing in page 1 evicts page 0, which must reach the OS cache.
	f1, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	f1.Unpin()
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 123 {
		t.Fatal("dirty page lost at eviction")
	}
}

func TestSyncAllFlushesAndSyncs(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(3)
	f.Data.Init(page.TypeLeaf, 0)
	f.Data.SetSyncToken(9)
	f.MarkDirty()
	f.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	// A crash that loses all *pending* writes must keep the page: it was
	// synced, so there is nothing pending.
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	if err := d.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 9 {
		t.Fatal("synced page did not survive crash")
	}
}

func TestRemapReplacesDiskIdentity(t *testing.T) {
	p, d := newPoolDisk(8)
	// Page 4 exists with old contents.
	old, _ := p.NewPage(4)
	old.Data.Init(page.TypeLeaf, 0)
	old.Data.SetSyncToken(1)
	old.MarkDirty()
	old.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}

	// Build a detached replacement (reorg split step 1/5).
	det := p.NewDetached()
	det.Data.Init(page.TypeLeaf, 0)
	det.Data.SetSyncToken(2)
	p.Remap(det, 4)

	got, err := p.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != det || got.Data.SyncToken() != 2 {
		t.Fatal("Get after remap must return the remapped frame")
	}
	got.Unpin()

	// Before a sync the disk still holds the old image (that is the whole
	// point of the reorganization algorithm).
	buf := page.New()
	if err := d.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 1 {
		t.Fatal("remap must not touch the disk before sync")
	}

	det.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 2 {
		t.Fatal("sync must overwrite the original with the remapped page")
	}
}

func TestDropInvalidatesWithoutWriting(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(6)
	f.Data.Init(page.TypeLeaf, 0)
	f.MarkDirty()
	f.Unpin()
	p.Drop(6)
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() > 0 {
		buf := page.New()
		if err := d.ReadPage(6, buf); err == nil && !buf.IsZeroed() {
			t.Fatal("dropped page must not be written")
		}
	}
}

func TestPinCount(t *testing.T) {
	p, _ := newPoolDisk(8)
	if p.PinCount(1) != 0 {
		t.Fatal("unbuffered page has pin count 0")
	}
	f, _ := p.NewPage(1)
	f.Pin()
	if p.PinCount(1) != 2 {
		t.Fatalf("PinCount = %d, want 2", p.PinCount(1))
	}
	f.Unpin()
	f.Unpin()
	if p.PinCount(1) != 0 {
		t.Fatal("pins not released")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolDisk(8)
	f, _ := p.NewPage(0)
	f.Unpin()
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin must panic")
		}
	}()
	f.Unpin()
}

func TestInvalidateAllSimulatesVolatileLoss(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(0)
	f.Data.Init(page.TypeLeaf, 0)
	f.Data.SetSyncToken(5)
	f.MarkDirty()
	f.Unpin()
	p.InvalidateAll()
	// The dirty page never reached storage: reading it again yields
	// whatever stable storage has (nothing).
	f2, err := p.Get(0)
	if err == nil {
		defer f2.Unpin()
		if !f2.Data.IsZeroed() {
			t.Fatal("invalidated dirty page must not survive")
		}
	}
	_ = d
}

func TestConcurrentGetSamePage(t *testing.T) {
	p, _ := newPoolDisk(64)
	f, _ := p.NewPage(0)
	f.Data.Init(page.TypeLeaf, 0)
	f.Unpin()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fr, err := p.Get(0)
				if err != nil {
					t.Error(err)
					return
				}
				fr.RLatch()
				_ = fr.Data.Type()
				fr.RUnlatch()
				fr.Unpin()
			}
		}()
	}
	wg.Wait()
	if p.PinCount(0) != 0 {
		t.Fatal("pins leaked")
	}
}

// flushWatchDisk counts the writes of each page, and the most writes that
// flushDirty's workers had at the device at once.
type flushWatchDisk struct {
	storage.Disk
	mu             sync.Mutex
	writes         map[storage.PageNo]int
	flushing, peak int
}

func (d *flushWatchDisk) WritePage(no storage.PageNo, data page.Page) error {
	flush := calledFrom(".flushDirty.")
	d.mu.Lock()
	d.writes[no]++
	if flush {
		d.flushing++
		d.peak = max(d.peak, d.flushing)
	}
	d.mu.Unlock()
	err := d.Disk.WritePage(no, data)
	if flush {
		d.mu.Lock()
		d.flushing--
		d.mu.Unlock()
	}
	return err
}

// calledFrom reports whether a function whose name contains fn is on the
// calling goroutine's stack.
func calledFrom(fn string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestFlushPinsAQuarter: a flush of a 128-frame pool whose every frame is
// dirty, on a device whose writes take a millisecond, has at most a quarter
// of the frames (32) at the device at once — a flush worker pins one frame,
// only for its own write — while eight goroutines Get pages the pool does
// not hold, each miss evicting a frame. None of them finds every frame
// pinned, and every dirty page reaches the disk exactly once, written by the
// flush or by an eviction.
func TestFlushPinsAQuarter(t *testing.T) {
	const frames, others = 128, 128
	d := storage.NewMemDisk()
	img := page.New()
	img.Init(page.TypeLeaf, 0)
	for no := storage.PageNo(frames); no < frames+others; no++ {
		if err := d.WritePage(no, img); err != nil {
			t.Fatal(err)
		}
	}
	w := &flushWatchDisk{Disk: d, writes: make(map[storage.PageNo]int)}
	p := NewPool(w, frames)
	if depth := p.forceDepth(); depth != frames/4 {
		t.Fatalf("force depth %d, want %d", depth, frames/4)
	}
	for no := storage.PageNo(0); no < frames; no++ {
		f, err := p.NewPage(no)
		if err != nil {
			t.Fatal(err)
		}
		f.Data.Init(page.TypeLeaf, 0)
		f.MarkDirty()
		f.Unpin()
	}
	d.SetLatency(0, time.Millisecond)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 8 {
				select {
				case <-stop:
					return
				default:
				}
				f, err := p.Get(storage.PageNo(frames + i%others))
				if err != nil {
					errs <- err
					return
				}
				f.Unpin()
			}
		}(g)
	}
	err := p.FlushDirty()
	close(stop)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		t.Errorf("Get during the flush: %v", err)
	}
	t.Logf("at most %d flush writes in flight", w.peak)
	if w.peak > frames/4 {
		t.Errorf("%d flush writes in flight at once, want at most %d", w.peak, frames/4)
	}
	for no := storage.PageNo(0); no < frames; no++ {
		if n := w.writes[no]; n != 1 {
			t.Errorf("page %d written %d times, want once", no, n)
		}
	}
}

// heldWrite holds the first write of one page at the device until release
// is closed.
type heldWrite struct {
	storage.Disk
	no      storage.PageNo
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	writes  int
}

func (d *heldWrite) WritePage(no storage.PageNo, data page.Page) error {
	if no == d.no {
		d.mu.Lock()
		d.writes++
		d.mu.Unlock()
		d.once.Do(func() {
			close(d.arrived)
			<-d.release
		})
	}
	return d.Disk.WritePage(no, data)
}

// TestFlushWaitsForWriteInFlight: a flush that finds a dirty page already on
// its way to the device, written by another flush, returns only once that
// write is done, and the page is written once. Had it skipped the page, a
// commit's force running beside the flush daemon could sync without the
// page and report it durable.
func TestFlushWaitsForWriteInFlight(t *testing.T) {
	d := &heldWrite{Disk: storage.NewMemDisk(), no: 3, arrived: make(chan struct{}), release: make(chan struct{})}
	p := NewPool(d, 8)
	f, err := p.NewPage(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Init(page.TypeLeaf, 0)
	f.Data.SetSyncToken(9)
	f.MarkDirty()
	f.Unpin()

	first := make(chan error, 1)
	go func() { first <- p.SyncAll() }()
	<-d.arrived
	second := make(chan error, 1)
	go func() { second <- p.SyncAll() }()
	select {
	case err := <-second:
		t.Fatalf("second sync returned (%v) while the first one's write of the page was at the device", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(d.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if d.writes != 1 {
		t.Fatalf("page written %d times, want once", d.writes)
	}
}
