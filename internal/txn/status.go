package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// The status table. Every page describes itself: after the normal page
// header comes
//
//	highWater u64 | count u32 | version u32 | xid u64 × count
//
// count is the number of entries on THIS page, and the committed set is the
// entries of pages 0..k, where k is the first page that is not full; what
// lies past page k is never read. No page is the table's directory, so an
// append that leaves the tail page (page k) short of full is one page write
// and one sync, however long the table is — the §2 atomic single-page write
// is the commit point. Only a batch that fills the tail page needs two
// phases (appendCrossing). Entries are in commit order and never move.
//
// highWater is the XID ceiling: no XID at or above the largest highWater on
// pages 0..k was ever handed out, and a restart resumes there (see
// appendStatus).
const (
	statusVersion = 2 // version 0 is what the retired page-0-directory layout reads as

	offHighWater = page.HeaderSize
	offCount     = offHighWater + 8
	offVersion   = offCount + 4
	offEntries   = offVersion + 4
	xidsPerPage  = (page.Size - offEntries) / 8

	// xidChunk is how far every status write sets the ceiling above the
	// next XID: the most XIDs a restart skips, and the number of BEGINs
	// with no commit among them before one has to write.
	xidChunk = 1024
)

// ErrStatusFormat marks a status file this build cannot read: a page of
// another layout version (there is no converter), a page that fails its
// checksum, a page whose entry count cannot be true, or a zeroed page 0 with
// pages after it.
var ErrStatusFormat = errors.New("txn: unreadable status table")

var le = binary.LittleEndian

func newStatusPage(highWater heap.XID) page.Page {
	p := page.New()
	p.Init(page.TypeMeta, 0)
	le.PutUint32(p[offVersion:], statusVersion)
	le.PutUint64(p[offHighWater:], uint64(highWater))
	return p
}

func statusCount(p page.Page) int { return int(le.Uint32(p[offCount:])) }

// statusAppend adds xids, which must fit, after the page's entries.
func statusAppend(p page.Page, xids []heap.XID) {
	n := statusCount(p)
	for i, x := range xids {
		le.PutUint64(p[offEntries+8*(n+i):], uint64(x))
	}
	le.PutUint32(p[offCount:], uint32(n+len(xids)))
}

// statusRead is one status page as the device returned it.
type statusRead struct {
	highWater heap.XID
	xids      []heap.XID // empty for a zeroed page
	err       error
}

// readStatusPage decodes page no. The device is read raw, so nothing on the
// page is believed before it is checked.
func readStatusPage(disk storage.Disk, no storage.PageNo, buf page.Page) (r statusRead) {
	if r.err = disk.ReadPage(no, buf); r.err != nil || buf.IsZeroed() {
		return r
	}
	if !buf.ChecksumOK() {
		r.err = fmt.Errorf("%w: page %d fails its checksum", ErrStatusFormat, no)
		return r
	}
	if v := le.Uint32(buf[offVersion:]); v != statusVersion {
		r.err = fmt.Errorf("%w: page %d has layout version %d, this build reads only %d (older files are not converted)",
			ErrStatusFormat, no, v, statusVersion)
		return r
	}
	n := statusCount(buf)
	if n > xidsPerPage {
		r.err = fmt.Errorf("%w: page %d claims %d entries, a page holds %d", ErrStatusFormat, no, n, xidsPerPage)
		return r
	}
	r.highWater = heap.XID(le.Uint64(buf[offHighWater:]))
	r.xids = make([]heap.XID, n)
	for i := range r.xids {
		r.xids[i] = heap.XID(le.Uint64(buf[offEntries+8*i:]))
	}
	return r
}

// readStatusPages reads the whole file, buffer.FlushWorkers pages at a time.
// Which pages count is not known before page k is found, and reading the few
// past it costs no extra wait.
func readStatusPages(disk storage.Disk) []statusRead {
	pages := make([]statusRead, disk.NumPages())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(len(pages), buffer.FlushWorkers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := page.GetScratch()
			defer page.PutScratch(buf)
			for no := next.Add(1) - 1; no < int64(len(pages)); no = next.Add(1) - 1 {
				pages[no] = readStatusPage(disk, storage.PageNo(no), buf)
			}
		}()
	}
	wg.Wait()
	return pages
}

// loadStatus fills the manager from the status file, or starts the file if
// it is new or one zeroed page.
func (m *Manager) loadStatus() error {
	pages := readStatusPages(m.disk)
	empty := len(pages) == 0 || (pages[0].err == nil && len(pages[0].xids) == 0)
	if empty && len(pages) > 1 {
		// Page 0 always holds the bootstrap transaction: empty ahead of
		// further pages, it is a lost table, not a new one.
		return fmt.Errorf("%w: page 0 holds no entries and %d pages follow it", ErrStatusFormat, len(pages)-1)
	}
	if empty {
		m.ceiling = m.nextXID + xidChunk
		m.tail = newStatusPage(m.ceiling)
		statusAppend(m.tail, []heap.XID{1}) // the bootstrap transaction
		return m.writeSync(0, m.tail)
	}
	var tailXIDs []heap.XID
	k := 0
	for ; k < len(pages); k++ {
		p := pages[k]
		if p.err != nil {
			return p.err
		}
		for _, x := range p.xids {
			m.committed[x] = true
		}
		m.ceiling = max(m.ceiling, p.highWater)
		if len(p.xids) < xidsPerPage {
			tailXIDs = p.xids
			break
		}
	}
	m.nextXID = max(m.nextXID, m.ceiling)
	m.tailNo = storage.PageNo(k)
	m.tail = newStatusPage(m.ceiling)
	statusAppend(m.tail, tailXIDs)
	return nil
}

func (m *Manager) writeSync(no storage.PageNo, img page.Page) error {
	if err := m.disk.WritePage(no, img); err != nil {
		return err
	}
	return m.disk.Sync()
}

// appendStatus makes xids durable as committed, all of them or none, and
// with them — or alone, for the Begin that calls it with no XIDs — a new XID
// ceiling. On failure the tail image is put back, so the next append
// overwrites whatever of this one reached the device.
//
// The ceiling is why Begin comes here at all. Without it a transaction that
// began after the last commit and died in a crash, its heap pages already
// flushed by the daemon, gave its XID to the first transaction after the
// restart — whose commit made the dead tuples visible. Every append raises
// the ceiling for free, so only xidChunk BEGINs in a row with no commit among
// them, or the first BEGIN after a restart, pay a write for it.
func (m *Manager) appendStatus(xids []heap.XID) error {
	start := time.Now()
	m.statusMu.Lock()
	defer m.statusMu.Unlock()
	m.mu.Lock()
	ceiling := m.nextXID + xidChunk
	raised := m.nextXID < m.ceiling
	m.mu.Unlock()
	if len(xids) == 0 && raised {
		return nil // by a commit, or by a Begin ahead of this one
	}

	old := statusCount(m.tail)
	le.PutUint64(m.tail[offHighWater:], uint64(ceiling))
	var err error
	if room := xidsPerPage - old; len(xids) < room {
		statusAppend(m.tail, xids)
		err = m.writeSync(m.tailNo, m.tail)
	} else {
		err = m.appendCrossing(xids, room, ceiling)
	}
	if err != nil {
		le.PutUint32(m.tail[offCount:], uint32(old))
		return err
	}
	m.obs.Observe(obs.TStatusWrite, time.Since(start))
	m.mu.Lock()
	m.ceiling = ceiling
	for _, x := range xids {
		m.committed[x] = true
	}
	m.mu.Unlock()
	return nil
}

// appendCrossing is the append that fills the tail page, about one in a
// thousand: the first room XIDs complete it and the rest go on the pages
// after it, the last of which — the new tail — is left short of full, or
// empty. The successors are written and synced first. A crash there, or
// while the tail page is being written, leaves the tail page short of full
// on the device, so recovery stops at it and reads no successor. Writing the
// full tail page is then the commit point for the whole batch.
//
// A batch that fills the tail page exactly also writes its (empty) successor
// first: an earlier crossing that failed may have left entries there, and
// once the tail page reads full, recovery walks on to whatever the next page
// holds. So a page is never full on the device before its successor is
// durable in the state recovery should find.
func (m *Manager) appendCrossing(xids []heap.XID, room int, ceiling heap.XID) error {
	m.obs.Count(obs.CommitTwoPhase)
	statusAppend(m.tail, xids[:room])
	rest := xids[room:]
	no := m.tailNo
	var succ page.Page
	for {
		no++
		succ = newStatusPage(ceiling)
		n := min(len(rest), xidsPerPage)
		statusAppend(succ, rest[:n])
		rest = rest[n:]
		if err := m.disk.WritePage(no, succ); err != nil {
			return err
		}
		if n < xidsPerPage {
			break
		}
	}
	if err := m.disk.Sync(); err != nil {
		return err
	}
	if m.hookAfterSuccessorSync != nil {
		m.hookAfterSuccessorSync()
	}
	if err := m.writeSync(m.tailNo, m.tail); err != nil {
		return err
	}
	m.tailNo, m.tail = no, succ
	return nil
}
