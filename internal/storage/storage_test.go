package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/page"
)

func fill(b byte) page.Page {
	p := page.New()
	for i := range p {
		p[i] = b
	}
	return p
}

// sealed is the image a disk stores for data: WritePage seals every image
// with the format-v2 header checksum.
func sealed(data page.Page) page.Page {
	img := page.New()
	copy(img, data)
	img.UpdateChecksum()
	return img
}

func testDiskBasics(t *testing.T, d Disk) {
	t.Helper()
	if err := d.WritePage(0, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(3, fill(4)); err != nil {
		t.Fatal(err)
	}
	if n := d.NumPages(); n != 4 {
		t.Fatalf("NumPages = %d, want 4", n)
	}
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sealed(fill(1))) {
		t.Fatal("page 0 contents wrong")
	}
	if !buf.ChecksumOK() {
		t.Fatal("stored image must be sealed with a valid checksum")
	}
	// Page 2 was never written: reads as zeros (sparse file semantics).
	if err := d.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page.New()) {
		t.Fatal("unwritten page should read as zeros")
	}
	if err := d.ReadPage(10, buf); err == nil {
		t.Fatal("read past end must fail")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite after sync.
	if err := d.WritePage(0, fill(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("reads must observe buffered writes")
	}
}

func TestMemDiskBasics(t *testing.T) { testDiskBasics(t, NewMemDisk()) }
func TestFileDiskBasics(t *testing.T) {
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	testDiskBasics(t, d)
}

func TestFileDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(1, fill(7)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Fatalf("NumPages after reopen = %d, want 2", d2.NumPages())
	}
	buf := page.New()
	if err := d2.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("synced page lost across reopen")
	}
}

// TestFileDiskConcurrentIO: page writes, reads and a sync on one file run
// at the same time (no mutex is held across a system call any more); every
// page reads back as the sealed image of what its writer handed over, the
// file size grew to the highest page, and Close waits for I/O in flight.
func TestFileDiskConcurrentIO(t *testing.T) {
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 64
	var wg sync.WaitGroup
	errs := make(chan error, 2*writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				no := PageNo(i*writers + w)
				if err := d.WritePage(no, fill(byte(no))); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := page.New()
			for i := 0; i < perWriter; i++ {
				if err := d.ReadPage(0, buf); err != nil && !errors.Is(err, ErrOutOfRange) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := d.Sync(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.NumPages(); got != writers*perWriter {
		t.Fatalf("NumPages = %d, want %d", got, writers*perWriter)
	}
	buf := page.New()
	for no := PageNo(0); no < writers*perWriter; no++ {
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sealed(fill(byte(no)))) {
			t.Fatalf("page %d did not read back as its sealed image", no)
		}
	}
	// A write racing Close either lands or is refused; it never touches a
	// closed file.
	raced := make(chan error, 1)
	go func() { raced <- d.WritePage(0, fill(1)) }()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-raced; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("write racing Close: %v", err)
	}
}

func TestMemDiskWrongBufferSize(t *testing.T) {
	d := NewMemDisk()
	if err := d.WritePage(0, make(page.Page, 100)); err == nil {
		t.Fatal("short buffer must be rejected")
	}
	if err := d.ReadPage(0, make(page.Page, 100)); err == nil {
		t.Fatal("short buffer must be rejected")
	}
}

// TestClosedDiskConsistency checks that after Close every Disk method gives
// a closed-consistent answer on every disk type: ErrClosed from the
// error-returning methods, 0 from NumPages, and nil from a repeated Close.
func TestClosedDiskConsistency(t *testing.T) {
	disks := map[string]func(t *testing.T) Disk{
		"MemDisk": func(t *testing.T) Disk { return NewMemDisk() },
		"FileDisk": func(t *testing.T) Disk {
			d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"FaultDisk": func(t *testing.T) Disk {
			d, err := NewFaultDisk(NewMemDisk(), FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, open := range disks {
		t.Run(name, func(t *testing.T) {
			d := open(t)
			if err := d.WritePage(0, fill(1)); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if err := d.ReadPage(0, page.New()); !errors.Is(err, ErrClosed) {
				t.Errorf("ReadPage after close = %v, want ErrClosed", err)
			}
			if err := d.WritePage(0, page.New()); !errors.Is(err, ErrClosed) {
				t.Errorf("WritePage after close = %v, want ErrClosed", err)
			}
			if err := d.Sync(); !errors.Is(err, ErrClosed) {
				t.Errorf("Sync after close = %v, want ErrClosed", err)
			}
			if n := d.NumPages(); n != 0 {
				t.Errorf("NumPages after close = %d, want 0", n)
			}
			if err := d.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
			if c, ok := d.(Crasher); ok {
				if err := c.CrashPartial(CrashAll); !errors.Is(err, ErrClosed) {
					t.Errorf("CrashPartial after close = %v, want ErrClosed", err)
				}
			}
		})
	}
}

// TestFileDiskPartialTailRead pins the ReadPage fix for a file whose last
// page is only partially present: the short ReadAt must keep the bytes that
// were read and zero only the unread suffix.
func TestFileDiskPartialTailRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WritePage(0, fill(7)); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-page: the tail page now has a durable prefix only, as
	// after a torn tail write.
	const keep = 1000
	if err := os.Truncate(path, keep); err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	want := sealed(fill(7))
	if !bytes.Equal(buf[:keep], want[:keep]) {
		t.Error("durable prefix of a partial tail page was discarded")
	}
	if !bytes.Equal(buf[keep:], make([]byte, page.Size-keep)) {
		t.Error("unread suffix must be zeroed")
	}
}

func TestCrashDiscardsPendingWrites(t *testing.T) {
	d := NewMemDisk()
	if err := d.WritePage(0, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(0, fill(2)); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(CrashNone); err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("after crash page 0 byte = %d, want pre-crash 1", buf[0])
	}
}

func TestCrashKeepsChosenSubset(t *testing.T) {
	d := NewMemDisk()
	for no := PageNo(0); no < 4; no++ {
		if err := d.WritePage(no, fill(byte(no+1))); err != nil {
			t.Fatal(err)
		}
	}
	pending := d.PendingPages()
	if len(pending) != 4 {
		t.Fatalf("pending = %v", pending)
	}
	if err := d.CrashPartial(CrashOnly(1, 3)); err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	for no, want := range map[PageNo]byte{1: 2, 3: 4} {
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Errorf("page %d byte = %d, want %d", no, buf[0], want)
		}
	}
	// Pages 0 and 2 were lost; they read as zeros.
	for _, no := range []PageNo{0, 2} {
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page.New()) {
			t.Errorf("lost page %d should read zeroed", no)
		}
	}
}

func TestCrashShrinksHighWaterMark(t *testing.T) {
	d := NewMemDisk()
	if err := d.WritePage(0, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(9, fill(2)); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 10 {
		t.Fatal("extension should be visible before crash")
	}
	if err := d.CrashPartial(CrashNone); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages after crash = %d, want 1 (lost extension)", d.NumPages())
	}
}

func TestCrashSubsetMaskEnumeration(t *testing.T) {
	// Every mask must keep exactly the pages whose bit is set.
	for mask := uint64(0); mask < 8; mask++ {
		d := NewMemDisk()
		for no := PageNo(0); no < 3; no++ {
			if err := d.WritePage(no, fill(byte(no+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.CrashPartial(CrashSubsetMask(mask)); err != nil {
			t.Fatal(err)
		}
		buf := page.New()
		for no := PageNo(0); no < 3; no++ {
			if no >= d.NumPages() {
				if mask&(1<<no) != 0 {
					t.Fatalf("mask %b: page %d should have survived", mask, no)
				}
				continue
			}
			if err := d.ReadPage(no, buf); err != nil {
				t.Fatal(err)
			}
			kept := buf[0] == byte(no+1)
			want := mask&(1<<no) != 0
			if kept != want {
				t.Errorf("mask %b page %d: kept=%v want %v", mask, no, kept, want)
			}
		}
	}
}

func TestCrashHelpers(t *testing.T) {
	pending := []PageNo{2, 5, 9}
	if got := CrashAll(pending); len(got) != 3 {
		t.Fatal("CrashAll must keep everything")
	}
	if got := CrashNone(pending); got != nil {
		t.Fatal("CrashNone must drop everything")
	}
	if got := CrashExcept(5)(pending); len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("CrashExcept(5) = %v", got)
	}
	if got := CrashOnly(9, 2)(pending); len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("CrashOnly = %v", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d := NewMemDisk()
	_ = d.WritePage(0, fill(1))
	_ = d.Sync()
	_ = d.WritePage(0, fill(2))
	_ = d.CrashPartial(CrashAll)
	w, s, c := d.Stats()
	if w != 2 || s != 1 || c != 1 {
		t.Fatalf("stats = %d/%d/%d", w, s, c)
	}
}
