package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/page"
)

// TornMode selects which buffered writes a simulated crash is allowed to
// tear (make partially durable).
type TornMode int

const (
	// TearFresh tears only pages with no previous durable image — freshly
	// allocated pages such as the shadow copies K1/K2 of §3.3 or the new
	// page P_b of a §3.4 reorganization split. These are exactly the pages
	// the paper's repair machinery has redundancy for: a torn fresh page
	// reads back as garbage, fails its checksum, is classified "never
	// became durable", and is rebuilt from its source. Tearing an
	// *overwrite* instead destroys the only durable copy of the old
	// contents, which no single-page scheme can repair without a
	// doublewrite buffer — so TearFresh is the default.
	TearFresh TornMode = iota
	// TearAll tears any buffered write, including in-place overwrites.
	// Recovery is then not guaranteed; used to demonstrate the limits of
	// the model (see DESIGN.md "Beyond the paper's failure model").
	TearAll
)

// FaultConfig configures a FaultDisk's deterministic fault schedule. All
// probabilities are in [0,1]; zero values inject nothing of that kind.
type FaultConfig struct {
	// Seed drives the internal PRNG. Identical seeds and operation
	// sequences produce identical fault schedules.
	Seed int64
	// TransientReadProb is the chance a ReadPage fails with ErrTransient.
	TransientReadProb float64
	// TransientWriteProb is the chance a WritePage fails with ErrTransient.
	TransientWriteProb float64
	// BitRotProb is the chance a ReadPage returns its data with a single
	// flipped bit. The stored image is not modified, so a retry (prompted
	// by the checksum failure) sees clean data — modeling a transient bus
	// or DRAM error rather than media decay. For media decay, use
	// CorruptStable.
	BitRotProb float64
	// TornWriteProb is the chance that a buffered write chosen to survive
	// CrashPartial is made only partially durable: a prefix and a suffix
	// of the new image land, the middle retains the previous durable
	// contents (zeroes for a fresh page).
	TornWriteProb float64
	// TornMode bounds which writes may tear; see TornMode.
	TornMode TornMode
	// MaxTransientRun caps consecutive transient failures of one
	// operation, guaranteeing that a bounded retry loop eventually
	// succeeds. Zero means the default of 3.
	MaxTransientRun int
	// TearMeta allows page 0 (the meta page) to be torn. The meta page is
	// a fixed-location overwrite with no redundant copy, so it is
	// protected by default even under TearAll.
	TearMeta bool
}

// FaultStats counts injected faults.
type FaultStats struct {
	TransientReads  int // reads failed with ErrTransient
	TransientWrites int // writes failed with ErrTransient
	BitRotReads     int // reads returned with a flipped bit
	TornWrites      int // pages made partially durable at a crash
	BadSectorReads  int // reads failed with ErrBadSector
}

// FaultDisk wraps any Disk and injects storage faults under a seeded,
// deterministic schedule: transient read/write errors, read-time bit rot,
// permanent bad sectors, and — at crash time — torn page writes. It
// implements Crasher over ANY inner disk by keeping its own write buffer
// and treating the inner disk as stable storage, so the existing 2^n
// crash-subset enumeration and fuzz suites run unmodified over a
// FaultDisk(FileDisk) as well as a FaultDisk(MemDisk).
type FaultDisk struct {
	mu      sync.Mutex
	inner   Disk
	raw     rawWriter
	cfg     FaultConfig
	rng     *rand.Rand
	pending map[PageNo][]byte // sealed images buffered since the last Sync
	// everDurable tracks locations that have had a durable image at some
	// point, i.e. locations where a torn write would destroy prior
	// contents. Used by TearFresh.
	everDurable map[PageNo]bool
	badSectors  map[PageNo]bool
	// permBad marks bad sectors that survive Sync (media damage the device
	// cannot remap); see AddPermanentBadSector.
	permBad map[PageNo]bool
	nPages  PageNo // logical size including pending-only pages
	// runRead/runWrite count consecutive transient failures per location,
	// enforcing MaxTransientRun.
	runRead  map[PageNo]int
	runWrite map[PageNo]int
	stats    FaultStats
	closed   bool
	syncErr  error // what every Sync returns while set (FailSyncs)
	// rec annotates the observability trace with each injected fault, so a
	// timeline pairs every cause with the repair it provoked. Guarded by mu.
	rec *obs.Recorder
}

// NewFaultDisk wraps inner with fault injection. The inner disk must be a
// *MemDisk or *FileDisk (anything implementing the package's raw write
// hook); FaultDisk needs it to plant torn images without re-sealing them.
func NewFaultDisk(inner Disk, cfg FaultConfig) (*FaultDisk, error) {
	raw, ok := inner.(rawWriter)
	if !ok {
		return nil, fmt.Errorf("storage: %T cannot back a FaultDisk (no raw write support)", inner)
	}
	if cfg.MaxTransientRun <= 0 {
		cfg.MaxTransientRun = 3
	}
	d := &FaultDisk{
		inner:       inner,
		raw:         raw,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		pending:     make(map[PageNo][]byte),
		everDurable: make(map[PageNo]bool),
		badSectors:  make(map[PageNo]bool),
		permBad:     make(map[PageNo]bool),
		runRead:     make(map[PageNo]int),
		runWrite:    make(map[PageNo]int),
		nPages:      inner.NumPages(),
	}
	// Everything already on the inner disk is a prior durable image.
	for no := PageNo(0); no < d.nPages; no++ {
		d.everDurable[no] = true
	}
	return d, nil
}

// SetObs attaches an event recorder; injected faults are then recorded as
// inject.* events alongside the repairs they provoke.
func (d *FaultDisk) SetObs(r *obs.Recorder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = r
}

// Stats returns a snapshot of the injected-fault counters.
func (d *FaultDisk) Stats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// AddBadSector marks page no permanently unreadable: every ReadPage of it
// fails with ErrBadSector until the location is rewritten and made durable
// again (a fresh write "remaps" the sector).
func (d *FaultDisk) AddBadSector(no PageNo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.badSectors[no] = true
}

// AddPermanentBadSector marks page no unreadable like AddBadSector, but the
// sector survives Sync: no rewrite remaps it. This models media damage the
// device cannot route around — the scenario that forces the quarantine and
// degraded-mode machinery rather than a transient repair. Cleared only by
// ClearBadSector.
func (d *FaultDisk) AddPermanentBadSector(no PageNo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.badSectors[no] = true
	d.permBad[no] = true
}

// ClearBadSector removes any bad-sector marking (transient or permanent)
// from page no, reporting whether one was present. Tests use it to model
// the fault clearing (e.g. a device firmware remap) so the repair
// supervisor can heal the page.
func (d *FaultDisk) ClearBadSector(no PageNo) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.badSectors[no]
	delete(d.badSectors, no)
	delete(d.permBad, no)
	return ok
}

// FailSyncs makes every Sync fail with err, leaving the buffered writes
// buffered, until it is called with nil: a device that for a while makes
// nothing durable.
func (d *FaultDisk) FailSyncs(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncErr = err
}

// CorruptStable mutates the durable image of page no on the inner disk, for
// tests that model media decay directly. It reports whether an image was
// written back.
func (d *FaultDisk) CorruptStable(no PageNo, mutate func(img page.Page)) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || no >= d.inner.NumPages() {
		return false
	}
	img := make(page.Page, page.Size)
	if err := d.inner.ReadPage(no, img); err != nil {
		return false
	}
	mutate(img)
	return d.raw.writePageRaw(no, img) == nil
}

// ReadPage implements Disk, injecting transient errors, bad sectors, and
// bit rot. Pending writes are visible to reads, like a UNIX buffer cache.
func (d *FaultDisk) ReadPage(no PageNo, buf page.Page) error {
	if err := checkPageBuf(buf); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if no >= d.nPages {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, no, d.nPages)
	}
	if d.cfg.TransientReadProb > 0 && d.runRead[no] < d.cfg.MaxTransientRun &&
		d.rng.Float64() < d.cfg.TransientReadProb {
		d.runRead[no]++
		d.stats.TransientReads++
		d.rec.Eventf(obs.InjectTransient, uint32(no), "read")
		return fmt.Errorf("%w: read page %d", ErrTransient, no)
	}
	d.runRead[no] = 0
	if d.badSectors[no] {
		d.stats.BadSectorReads++
		d.rec.Eventf(obs.InjectBadSector, uint32(no), "unreadable sector")
		return fmt.Errorf("%w: page %d", ErrBadSector, no)
	}
	if data, ok := d.pending[no]; ok {
		copy(buf, data)
	} else if no < d.inner.NumPages() {
		if err := d.inner.ReadPage(no, buf); err != nil {
			return err
		}
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	if d.cfg.BitRotProb > 0 && d.rng.Float64() < d.cfg.BitRotProb {
		bit := d.rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << uint(bit%8)
		d.stats.BitRotReads++
		d.rec.Eventf(obs.InjectBitRot, uint32(no), "bit %d flipped", bit)
	}
	return nil
}

// WritePage implements Disk, buffering the sealed image until the next
// Sync or CrashPartial, and injecting transient errors.
func (d *FaultDisk) WritePage(no PageNo, data page.Page) error {
	if err := checkPageBuf(data); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.cfg.TransientWriteProb > 0 && d.runWrite[no] < d.cfg.MaxTransientRun &&
		d.rng.Float64() < d.cfg.TransientWriteProb {
		d.runWrite[no]++
		d.stats.TransientWrites++
		d.rec.Eventf(obs.InjectTransient, uint32(no), "write")
		return fmt.Errorf("%w: write page %d", ErrTransient, no)
	}
	d.runWrite[no] = 0
	img := make(page.Page, page.Size)
	copy(img, data)
	img.UpdateChecksum()
	d.pending[no] = img
	if no >= d.nPages {
		d.nPages = no + 1
	}
	return nil
}

// Sync implements Disk: every buffered write becomes durable on the inner
// disk (no faults — torn writes only manifest when a crash interrupts the
// sync, which is what CrashPartial models).
func (d *FaultDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.syncErr != nil {
		return d.syncErr
	}
	for _, no := range d.pendingLocked() {
		if err := d.raw.writePageRaw(no, d.pending[no]); err != nil {
			return err
		}
		d.everDurable[no] = true
		if !d.permBad[no] {
			delete(d.badSectors, no) // a fresh durable write remaps the sector
		}
	}
	d.pending = make(map[PageNo][]byte)
	return d.inner.Sync()
}

// NumPages implements Disk. A closed disk reports zero pages.
func (d *FaultDisk) NumPages() PageNo {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	return d.nPages
}

// Close implements Disk. Buffered writes are discarded, as on power loss.
func (d *FaultDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.inner.Close()
}

// PendingPages implements Crasher.
func (d *FaultDisk) PendingPages() []PageNo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pendingLocked()
}

func (d *FaultDisk) pendingLocked() []PageNo {
	nos := make([]PageNo, 0, len(d.pending))
	for no := range d.pending {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	return nos
}

// CrashPartial implements Crasher: the pick function chooses which buffered
// writes survive. Unlike MemDisk.CrashPartial, a surviving write is not
// necessarily applied atomically — with probability TornWriteProb (and
// subject to TornMode) only a prefix and a suffix of the page reach the
// disk, leaving a checksum-invalid hybrid for recovery to detect.
func (d *FaultDisk) CrashPartial(pick func(pending []PageNo) []PageNo) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	keep := pick(d.pendingLocked())
	for _, no := range keep {
		data, ok := d.pending[no]
		if !ok {
			continue
		}
		img := data
		if d.tearableLocked(no) && d.rng.Float64() < d.cfg.TornWriteProb {
			img = d.tornImageLocked(no, data)
			d.stats.TornWrites++
			d.rec.Eventf(obs.InjectTorn, uint32(no), "write torn at crash")
		}
		if err := d.raw.writePageRaw(no, img); err != nil {
			return err
		}
		d.everDurable[no] = true
	}
	d.pending = make(map[PageNo][]byte)
	if err := d.inner.Sync(); err != nil {
		return err
	}
	// The logical file size shrinks back to the durable high-water mark,
	// mirroring a UNIX file whose extension never reached the disk.
	d.nPages = d.inner.NumPages()
	return nil
}

func (d *FaultDisk) tearableLocked(no PageNo) bool {
	if d.cfg.TornWriteProb <= 0 {
		return false
	}
	if no == 0 && !d.cfg.TearMeta {
		return false
	}
	if d.cfg.TornMode == TearFresh && d.everDurable[no] {
		return false
	}
	return true
}

// tornImageLocked builds the partially durable image of a torn write: the
// first and last k sectors carry the new data, the middle retains the prior
// durable contents (zeroes for a fresh page). k is chosen so at least one
// sector of each is present, guaranteeing the result differs from a clean
// image in a checksum-visible way for any non-trivial page.
func (d *FaultDisk) tornImageLocked(no PageNo, data []byte) []byte {
	const sector = 512
	sectors := page.Size / sector
	img := make([]byte, page.Size)
	if no < d.inner.NumPages() {
		// Prior durable contents fill the middle.
		_ = d.inner.ReadPage(no, img)
	}
	head := 1 + d.rng.Intn(sectors-1)  // 1..sectors-1 leading sectors land
	tail := d.rng.Intn(sectors - head) // 0..remaining trailing sectors land
	copy(img[:head*sector], data[:head*sector])
	if tail > 0 {
		off := (sectors - tail) * sector
		copy(img[off:], data[off:])
	}
	return img
}
