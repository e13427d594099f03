package storage

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/page"
)

// IOCounter counts the operations of one device: the reads, writes and syncs
// it served, the most that were in flight at once, and the waves they came
// in — the times the device went from idle to busy. With one client and
// nothing running in the background, the waves of a request are the device
// waits it sat through one after another, however long each one took and
// however many operations shared it.
//
// The disks of one device are CountingDisks sharing one IOCounter: a store's
// heap and index files, say.
type IOCounter struct {
	// Linger, when positive, makes a read that starts with no other operation
	// in flight wait up to that long for company before it goes ahead: if
	// the code under test ever has two reads out together, they meet,
	// however the scheduler runs the goroutines. A page write that starts
	// on an idle device waits that long outright, so that every write
	// starting meanwhile joins its wave: a commit forces each pool from its
	// own goroutine, and one pool's writes would otherwise be company
	// enough for the first of them to go before another pool's arrive.
	Linger time.Duration
	// Hold, when set, is asked before each read whether to hold it back; a
	// read it names waits, in flight, until Release is closed.
	Hold    func(no PageNo) bool
	Release chan struct{}

	reads, writes, syncs atomic.Int64
	flying, peak, waves  atomic.Int64
	lastRead             atomic.Uint32
}

// Reads returns how many reads have completed since the last Reset.
func (c *IOCounter) Reads() int64 { return c.reads.Load() }

// Writes returns how many page writes have completed since the last Reset.
func (c *IOCounter) Writes() int64 { return c.writes.Load() }

// Syncs returns how many syncs have completed since the last Reset.
func (c *IOCounter) Syncs() int64 { return c.syncs.Load() }

// Peak returns the most operations in flight at once since the last Reset.
func (c *IOCounter) Peak() int64 { return c.peak.Load() }

// Waves returns how many times an operation started on an idle device since
// the last Reset.
func (c *IOCounter) Waves() int64 { return c.waves.Load() }

// InFlight returns how many operations are at the device now, held reads
// included.
func (c *IOCounter) InFlight() int64 { return c.flying.Load() }

// LastRead returns the page of the latest completed read.
func (c *IOCounter) LastRead() PageNo { return c.lastRead.Load() }

// Reset zeroes every count but the number in flight; an operation in flight
// across it is counted when it completes.
func (c *IOCounter) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.syncs.Store(0)
	c.peak.Store(0)
	c.waves.Store(0)
}

// begin and end bracket one operation; end counts it into count. begin
// reports whether the operation started a wave.
func (c *IOCounter) begin() bool {
	n := c.flying.Add(1)
	if n == 1 {
		c.waves.Add(1)
	}
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return n == 1
}

func (c *IOCounter) end(count *atomic.Int64) {
	count.Add(1)
	c.flying.Add(-1)
}

// CountingDisk is a Disk whose operations its IOCounter counts.
type CountingDisk struct {
	Disk
	*IOCounter
}

// NewCountingDisk returns d behind a CountingDisk that counts into c, or into
// a counter of its own when c is nil.
func NewCountingDisk(d Disk, c *IOCounter) *CountingDisk {
	if c == nil {
		c = new(IOCounter)
	}
	return &CountingDisk{Disk: d, IOCounter: c}
}

// ReadPage implements Disk.
func (d *CountingDisk) ReadPage(no PageNo, buf page.Page) error {
	c := d.IOCounter
	c.begin()
	for deadline := time.Now().Add(c.Linger); c.Linger > 0 && c.flying.Load() < 2 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if c.Hold != nil && c.Hold(no) {
		<-c.Release
	}
	err := d.Disk.ReadPage(no, buf)
	c.lastRead.Store(no)
	c.end(&c.reads)
	return err
}

// WritePage implements Disk.
func (d *CountingDisk) WritePage(no PageNo, data page.Page) error {
	if d.begin() && d.Linger > 0 {
		time.Sleep(d.Linger)
	}
	err := d.Disk.WritePage(no, data)
	d.end(&d.writes)
	return err
}

// Sync implements Disk.
func (d *CountingDisk) Sync() error {
	d.begin()
	err := d.Disk.Sync()
	d.end(&d.syncs)
	return err
}
