package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/page"
)

// FileDisk is a Disk backed by a real file. Writes go straight to the file
// (i.e., into the operating system's buffer cache) and Sync calls fsync —
// exactly the UNIX behaviour the paper assumes: no write ordering within a
// sync, durability only at sync boundaries.
type FileDisk struct {
	// mu guards closed. Every operation read-holds it across its system
	// call — pread, pwrite and fsync on one *os.File are safe concurrently,
	// so page I/O and a sync in flight do not wait for each other — and
	// Close takes it exclusively, so it still waits for all of them.
	mu     sync.RWMutex
	f      *os.File
	closed bool
	nPages atomic.Uint32 // only grows
}

// OpenFileDisk opens (creating if necessary) the file at path as a page
// device.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%page.Size != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, st.Size())
	}
	d := &FileDisk{f: f}
	d.nPages.Store(PageNo(st.Size() / page.Size))
	return d, nil
}

// ReadPage implements Disk.
func (d *FileDisk) ReadPage(no PageNo, buf page.Page) error {
	if err := checkPageBuf(buf); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if n := d.nPages.Load(); no >= n {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, no, n)
	}
	n, err := d.f.ReadAt(buf, int64(no)*page.Size)
	if err == io.EOF {
		// The file may be sparse at the tail; a short read past the
		// written region yields zeroes for the unwritten suffix. Keep the
		// bytes that WERE read — zeroing the whole buffer would discard
		// the durable prefix of a partially written tail page.
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
		return nil
	}
	return err
}

// WritePage implements Disk.
func (d *FileDisk) WritePage(no PageNo, data page.Page) error {
	if err := checkPageBuf(data); err != nil {
		return err
	}
	// Seal into a scratch copy: the stored image carries the checksum but
	// the caller's buffer must not be modified (it may be a buffer-pool
	// frame that concurrent readers hold pinned).
	img := page.GetScratch()
	defer page.PutScratch(img)
	copy(img, data)
	img.UpdateChecksum()
	return d.writePageRaw(no, img)
}

// writePageRaw stores an image verbatim, without sealing. Used by FaultDisk
// to plant torn images into the file.
func (d *FileDisk) writePageRaw(no PageNo, data page.Page) error {
	if err := checkPageBuf(data); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if _, err := d.f.WriteAt(data, int64(no)*page.Size); err != nil {
		return err
	}
	for n := d.nPages.Load(); no >= n && !d.nPages.CompareAndSwap(n, no+1); n = d.nPages.Load() {
	}
	return nil
}

// Sync implements Disk via fsync.
func (d *FileDisk) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return d.f.Sync()
}

// NumPages implements Disk. A closed disk reports zero pages, consistent
// with every other method rejecting use after Close.
func (d *FileDisk) NumPages() PageNo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0
	}
	return d.nPages.Load()
}

// Close implements Disk. It deliberately does not sync first.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}
