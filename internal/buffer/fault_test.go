package buffer

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func newFaultPool(t *testing.T, cfg storage.FaultConfig) (*Pool, *storage.FaultDisk) {
	t.Helper()
	d, err := storage.NewFaultDisk(storage.NewMemDisk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(d, 8), d
}

// writePage seals a formatted page image onto the disk through the pool.
func writePage(t *testing.T, p *Pool, no storage.PageNo, fillByte byte) {
	t.Helper()
	f, err := p.NewPage(no)
	if err != nil {
		t.Fatal(err)
	}
	f.Data.Init(page.TypeLeaf, 0)
	for i := page.HeaderSize; i < page.HeaderSize+16; i++ {
		f.Data[i] = fillByte
	}
	f.MarkDirty()
	f.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRetriesTransientErrors(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{
		Seed:               11,
		TransientReadProb:  0.5,
		TransientWriteProb: 0.5,
		MaxTransientRun:    3,
	})
	rec := obs.New(0)
	p.SetObs(rec)
	p.setRetry(retryPolicy{maxAttempts: 5, baseDelay: time.Microsecond})
	for no := storage.PageNo(0); no < 8; no++ {
		writePage(t, p, no, byte(no+1))
	}
	p.InvalidateAll()
	for no := storage.PageNo(0); no < 8; no++ {
		f, err := p.Get(no)
		if err != nil {
			t.Fatalf("Get(%d) surfaced %v despite retry policy", no, err)
		}
		if f.Data[page.HeaderSize] != byte(no+1) {
			t.Fatalf("page %d contents wrong after retries", no)
		}
		f.Unpin()
	}
	if rec.Get(obs.IORetry) == 0 {
		t.Fatal("transient injection at 50% must have caused retries")
	}
	if s := d.Stats(); s.TransientReads == 0 && s.TransientWrites == 0 {
		t.Fatal("fault disk injected nothing — test is vacuous")
	}
}

func TestPoolExhaustedRetriesSurface(t *testing.T) {
	p, _ := newFaultPool(t, storage.FaultConfig{
		Seed:              11,
		TransientReadProb: 1,
		MaxTransientRun:   100, // beyond any retry budget
	})
	p.setRetry(retryPolicy{maxAttempts: 3, baseDelay: time.Microsecond})
	writePage(t, p, 0, 1)
	p.InvalidateAll()
	if _, err := p.Get(0); err == nil {
		t.Fatal("unbounded transient failure must eventually surface")
	}
}

func TestPoolZeroRoutesChecksumFailure(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{})
	rec := obs.New(0)
	p.SetObs(rec)
	writePage(t, p, 1, 7)
	p.InvalidateAll()
	// Corrupt the durable image: the page "never became durable".
	if !d.CorruptStable(1, func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatal("no durable image to corrupt")
	}
	f, err := p.Get(1)
	if err != nil {
		t.Fatalf("corrupted non-meta page must be zero-routed, got %v", err)
	}
	if !f.Data.IsZeroed() {
		t.Fatal("corrupted page must be served as a zero page")
	}
	if n := rec.Get(obs.ZeroRoute); n != 1 {
		t.Fatalf("io.zeroroute = %d, want 1", n)
	}
	// Crash repair rewrites the frame with valid contents; flushing it
	// completes the repair.
	f.Data.Init(page.TypeLeaf, 0)
	f.MarkDirty()
	f.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if n := rec.Get(obs.TornRepair); n != 1 {
		t.Fatalf("io.tornrepair = %d, want 1", n)
	}
	// The durable image is sealed again.
	p.InvalidateAll()
	f, err = p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data.IsZeroed() || !f.Data.ChecksumOK() {
		t.Fatal("repaired page must read back valid")
	}
	f.Unpin()
}

func TestPoolZeroRoutesBadSector(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{})
	rec := obs.New(0)
	p.SetObs(rec)
	writePage(t, p, 2, 5)
	p.InvalidateAll()
	d.AddBadSector(2)
	f, err := p.Get(2)
	if err != nil {
		t.Fatalf("bad sector on a non-meta page must be zero-routed, got %v", err)
	}
	if !f.Data.IsZeroed() {
		t.Fatal("unreadable page must be served as a zero page")
	}
	f.Unpin()
	if n := rec.Get(obs.ZeroRoute); n != 1 {
		t.Fatalf("io.zeroroute = %d, want 1", n)
	}
}

func TestPoolMetaPageDamageIsHardError(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{})
	writePage(t, p, 0, 1)
	p.InvalidateAll()
	if !d.CorruptStable(0, func(img page.Page) { img[8] ^= 0xFF }) {
		t.Fatal("no durable image to corrupt")
	}
	_, err := p.Get(0)
	if err == nil {
		t.Fatal("damaged meta page must be a hard error, not zero-routed")
	}
	if !strings.Contains(err.Error(), "meta page") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The failed frame must not linger: a later Get must retry the read.
	if _, err2 := p.Get(0); err2 == nil {
		t.Fatal("frame of failed meta read must not be cached")
	}
}

func TestPoolBitRotHealedByReread(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{
		Seed:       5,
		BitRotProb: 0.2, // flips on roughly every fifth read
	})
	writePage(t, p, 1, 9)
	p.InvalidateAll()
	// With re-reads the pool should essentially always obtain a clean
	// image; run several cycles to exercise both rotted and clean reads.
	for i := 0; i < 20; i++ {
		f, err := p.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Data.ChecksumOK() || f.Data[page.HeaderSize] != 9 {
			t.Fatalf("cycle %d: bit rot reached the caller", i)
		}
		f.Unpin()
		p.InvalidateAll()
	}
	if d.Stats().BitRotReads == 0 {
		t.Fatal("no bit rot injected — test is vacuous")
	}
}
