package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/storage"
)

const (
	// clients is the number of closed-loop connections of every phase but
	// mixed-cold's steady one (see workload.steadyClients): one per CPU of
	// the box the bounds were measured on.
	clients = 2
	// simLatency is the per-page read and write latency of the gated device
	// model ("sim100"), switched on after the load.
	simLatency = 100 * time.Microsecond
	// flushEvery is fastrec-server's default checkpoint interval.
	flushEvery = 50 * time.Millisecond
	// loadBatch is the MPUT size of the load phase.
	loadBatch = 500
	// phantomKeys is how many uncommitted inserts the transaction open at
	// each crash holds.
	phantomKeys = 1000
)

// instance is one running server generation over a store.
type instance struct {
	store core.Storage
	db    *core.DB
	srv   *server.Server
	rec   *obs.Recorder
	addr  string
}

// start opens a DB configured as cmd/fastrec-server ships (variant shadow,
// one shard, default pools unless the workload shrinks them) and serves it
// on a loopback port.
func start(store core.Storage, w *workload, flush time.Duration) (*instance, error) {
	rec := obs.New(obs.DefaultRingCap)
	db, err := core.Open(store, core.Config{
		Variant:    core.Shadow,
		PoolSize:   w.pool,
		FlushEvery: flush,
		Obs:        rec,
	})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	srv, err := server.New(db, server.Options{Variant: core.Shadow})
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &instance{store: store, db: db, srv: srv, rec: rec, addr: srv.Addr().String()}, nil
}

// stop shuts the generation down cleanly. The device latency is dropped
// first: a shutdown is not measured and should not sleep.
func (in *instance) stop() {
	setLatency(in.store, 0)
	in.srv.Close()
	in.db.Close()
}

func setLatency(store core.Storage, d time.Duration) {
	for _, disk := range core.MemoryDisks(store) {
		disk.SetLatency(d, d)
	}
}

// setup builds a loaded, checkpointed server on a fresh sim100 store: what
// setup_s times.
func setup(w *workload, o *oracle, flush time.Duration) (*instance, error) {
	in, err := start(core.Memory(), w, flush)
	if err != nil {
		return nil, err
	}
	cl, err := dial(in.addr, o)
	if err != nil {
		in.stop()
		return nil, err
	}
	defer cl.close()
	keys := make([]int, 0, loadBatch)
	for k := 0; k < w.keys; k += loadBatch {
		keys = keys[:0]
		for i := k; i < k+loadBatch && i < w.keys; i++ {
			keys = append(keys, i)
		}
		if err := cl.mput(keys); err != nil {
			in.stop()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	if err := in.db.FlushAll(); err != nil {
		in.stop()
		return nil, fmt.Errorf("checkpoint after load: %w", err)
	}
	setLatency(in.store, simLatency)
	return in, nil
}

// phase is what one closed-loop phase measured: every client's samples,
// merged into completion order.
type phase struct {
	lat  samples
	ops  int
	wall time.Duration
}

// drive runs n closed-loop clients over mix until each has sent perClient
// requests (perClient > 0) or until d has passed (perClient == 0). New-key
// PUTs take key numbers from newBase up, so each phase that makes new keys
// names its own range and the same seed names the same keys.
func drive(in *instance, w *workload, o *oracle, mix []mixEntry, seed int64, n int, d time.Duration, perClient int, newBase int) (*phase, error) {
	cls := make([]*client, n)
	for i := range cls {
		cl, err := dial(in.addr, o)
		if err != nil {
			return nil, err
		}
		defer cl.close()
		cls[i] = cl
	}
	var (
		wg     sync.WaitGroup
		errs   = make([]error, n)
		counts = make([]int, n)
	)
	begin := time.Now()
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			cl.epoch = begin
			g := newGenerator(w, mix, seed, i, n, newBase)
			var o op
			for counts[i] != perClient || perClient == 0 {
				g.next(&o)
				if errs[i] = cl.do(&o); errs[i] != nil {
					return
				}
				counts[i]++
				if perClient == 0 && time.Since(begin) >= d {
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(begin)}
	for i, cl := range cls {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ph.ops += counts[i]
		ph.lat.merge(&cl.lat)
	}
	for v := range ph.lat {
		ss := ph.lat[v]
		sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	}
	return ph, nil
}

// cycle is what one crash/restart cycle measured.
type cycle struct {
	burst     *phase
	restart   time.Duration // crash -> first correct GET reply
	firstPass time.Duration // read and verify every acked key once
	pass      samples       // GET and SCAN latencies of the timed first pass
	repairs   uint64        // obs repair.* counted during the first pass
}

// crashCycle runs a write burst against in, leaves a transaction holding
// uncommitted new-key inserts open, crashes the machine keeping a seeded
// part of the page writes the OS had not yet made durable, restarts on the
// surviving bytes and verifies the store against the oracle. It returns
// the restarted generation, which the next cycle (number ordinal+1)
// continues on.
func crashCycle(in *instance, w *workload, o *oracle, seed int64, ordinal int) (*instance, *cycle, error) {
	cy := &cycle{}

	// The transaction that dies with the machine. It begins before the
	// burst: the status table persists the next XID only with a commit, so
	// a transaction begun after the last commit would have its XID reused
	// after the restart and its flushed tuples resurrected (README, "known
	// engine failures the generator avoids").
	loser, err := dial(in.addr, o)
	if err != nil {
		return in, nil, err
	}
	defer loser.close()
	if err := loser.expectLine("BEGIN", "OK "); err != nil {
		return in, nil, err
	}
	if cy.burst, err = drive(in, w, o, burstMix, seed+int64(ordinal)*104729, clients, 0, w.burstOps, 0); err != nil {
		return in, nil, fmt.Errorf("burst: %w", err)
	}
	// The crash comes right after a checkpoint pass: were the flush daemon
	// mid-way through writing a heap page of the open transaction when the
	// machine died, that page would be lost while its index entries may
	// survive (see crash).
	if err := awaitFlushPass(in); err != nil {
		return in, nil, err
	}
	// New keys only, so the split halves and heap pages the transaction
	// dirties are pending when the crash comes.
	if err := loserInserts(loser, ordinal); err != nil {
		return in, nil, err
	}

	next, err := crash(in, rand.New(rand.NewSource(seed^int64(ordinal+1)*7368787)))
	if err != nil {
		return in, nil, err
	}

	in.stop() // the dead generation owns only its own disks now; stop its daemon

	// Restart on the surviving bytes: open, serve, first correct reply.
	began := time.Now()
	in2, err := start(next, w, flushEvery)
	if err != nil {
		return in, nil, fmt.Errorf("restart: %w", err)
	}
	cl, err := dial(in2.addr, o)
	if err != nil {
		return in2, nil, err
	}
	defer cl.close()
	failsBefore := o.fails[vGet].Load()
	if err := cl.get(vGet, 0); err != nil {
		return in2, nil, err
	}
	cy.restart = time.Since(began)
	if o.fails[vGet].Load() != failsBefore {
		return in2, cy, nil // counted; the pass below would only repeat it
	}

	repairs0 := in2.rec.RepairTotal()
	if cy.firstPass, cy.pass, err = firstPass(cl, w, ordinal); err != nil {
		return in2, nil, err
	}
	cy.repairs = in2.rec.RepairTotal() - repairs0
	return in2, cy, nil
}

// awaitFlushPass returns when the generation's flush daemon has just
// finished a pass, so the next one is a full period away.
func awaitFlushPass(in *instance) error {
	passes := in.rec.Get(obs.FlushDaemon)
	for deadline := time.Now().Add(2 * time.Second); in.rec.Get(obs.FlushDaemon) == passes; {
		if time.Now().After(deadline) {
			return fmt.Errorf("flush daemon made no pass in 2s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// phantomKey is the i-th key the transaction open at cycle ordinal's crash
// inserts: every cycle gets its own stretch of the phantom range.
func phantomKey(ordinal, i int) int { return phantomBase + (ordinal%100)*phantomKeys + i }

// loserInserts sends the open transaction's uncommitted inserts: keys from
// the phantom range, which no committed write ever uses.
func loserInserts(cl *client, ordinal int) error {
	const batch = 100
	for k := 0; k < phantomKeys; k += batch {
		cl.req = append(cl.req[:0], "MPUT"...)
		for i := k; i < k+batch; i++ {
			key := phantomKey(ordinal, i)
			cl.req = appendKey(append(cl.req, ' '), key)
			cl.req = appendValue(append(cl.req, ' '), key, 1)
		}
		cl.req = append(cl.req, '\n')
		line, err := cl.roundTrip()
		if err != nil {
			return err
		}
		if string(line) != fmt.Sprintf("OK %d", batch) {
			return fmt.Errorf("open transaction MPUT: reply %.80q", line)
		}
	}
	return nil
}

// crash kills the machine under in. Every pool hands its dirty pages to
// the OS (the sync the crash interrupts), a seeded choice of the writes
// still pending on each index file survives, and the durable bytes are
// copied to a fresh store: what a rebooted machine would read. The dead
// generation keeps its own disks, so its flush daemon can no longer touch
// the survivor.
//
// The paper's model lets any subset of a sync's pages survive. Two kinds of
// subset are left out here because the engine answers wrongly after them
// (README, "known engine failures the generator avoids"):
//
//   - Pending heap writes all survive. Losing a heap page whose index
//     entries survived leaves entries pointing at a TID the restarted heap
//     hands out again, and the server returns another key's tuple.
//   - Pending index leaves survive all together or not at all (a seeded coin
//     per file); internal pages and the meta page survive one by one, half
//     of them. Keeping a split's new leaves and parent while losing the left
//     neighbour's peer-pointer update leaves a stale peer link whose tokens
//     still agree, and range scans skip committed keys.
func crash(in *instance, rng *rand.Rand) (core.Storage, error) {
	for _, ix := range in.db.Indexes() {
		if err := ix.Tree().Pool().FlushDirty(); err != nil {
			return nil, fmt.Errorf("crash: flush index: %w", err)
		}
	}
	for _, rel := range in.db.Relations() {
		if err := rel.Heap().Pool().FlushDirty(); err != nil {
			return nil, fmt.Errorf("crash: flush heap: %w", err)
		}
	}
	disks := core.MemoryDisks(in.store)
	names := make([]string, 0, len(disks))
	for name := range disks {
		names = append(names, name)
	}
	sort.Strings(names) // so the seed, not map order, decides what survives
	next := core.Memory()
	survivors := core.MemoryDisks(next)
	buf := page.New()
	for _, name := range names {
		disk := disks[name]
		pick := storage.CrashAll
		if strings.HasPrefix(name, "idx_") {
			var keep []storage.PageNo
			keepLeaves := rng.Intn(2) == 0
			for _, no := range disk.PendingPages() {
				if err := disk.ReadPage(no, buf); err != nil {
					return nil, fmt.Errorf("crash %s: %w", name, err)
				}
				if leaf := buf.Valid() && buf.Type() == page.TypeLeaf; (leaf && keepLeaves) || (!leaf && rng.Intn(2) == 0) {
					keep = append(keep, no)
				}
			}
			pick = storage.CrashOnly(keep...)
		}
		if err := disk.CrashPartial(pick); err != nil {
			return nil, fmt.Errorf("crash %s: %w", name, err)
		}
		survivors[name] = disk.CloneStable()
	}
	setLatency(next, simLatency)
	return next, nil
}

// firstPass reads and verifies, on a freshly restarted store: every
// passStride-th key ever written (GET), a SCAN from every 8th of those,
// that the open transaction's inserts are gone, and one ordered walk of the
// key space against the model (all of it, or walkRows rows from a start
// that moves with the cycle). That much is timed and returned: its size
// does not depend on how many writes the time-bound phases got through.
// The written keys the stride skipped are then verified off the clock.
//
// The samples returned are those of the GETs and SCANs below quietKeys (of
// all of them on a workload with no quiet range). A workload whose steady
// mix has no reads takes its GET and SCAN metrics there: cold reads after a
// restart. Each costs a whole number of device waits, and over keys the run
// writes, how many depends on which keys the seed's writes hit (the share
// of GETs that wait twice read 3-9%, and get_p95_us, which sits on that
// step, spread 15% between seeds). The quiet range holds the loaded rows
// and nothing else, the same pages in the same order in every cycle of
// every run, so the same reads miss every time.
func firstPass(cl *client, w *workload, ordinal int) (time.Duration, samples, error) {
	o := cl.o
	max := int(o.maxKey.Load())
	cl.lat = samples{}
	began := time.Now()
	n := 0
	sweep := func(from, to int) error {
		for k := from; k < to; k += w.passStride {
			if state(o.keys[k].pending.Load()).ver() == 0 {
				continue // never written
			}
			if err := cl.get(vGet, k); err != nil {
				return err
			}
			if n++; n%8 == 0 {
				if err := cl.scan(k, w.scanRows, -1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// The sweep pauses at the first stride past the quiet range.
	quiet := (w.quietKeys + w.passStride - 1) / w.passStride * w.passStride
	if err := sweep(0, quiet); err != nil {
		return 0, samples{}, err
	}
	pass := cl.lat
	if err := sweep(quiet, max+1); err != nil {
		return 0, samples{}, err
	}
	if w.quietKeys == 0 {
		pass = cl.lat
	}
	for i := 0; i < phantomKeys; i += 7 {
		if err := cl.get(vGetAbsent, phantomKey(ordinal, i)); err != nil {
			return 0, samples{}, err
		}
	}
	// The ordered walk: chunked SCANs from the lowest key to the end, each
	// required to hold exactly the rows the model has.
	const chunk = 10000
	from, left := 0, max+1
	if w.walkRows > 0 {
		from, left = (ordinal*7919*chunk)%(w.keys-w.walkRows), w.walkRows
	}
	for ; from <= max && left > 0; left -= chunk {
		want, last := 0, from
		for k := from; k <= max && want < chunk; k++ {
			if state(o.keys[k].acked.Load()).present() {
				want++
				last = k
			}
		}
		if err := cl.scan(from, chunk, want); err != nil {
			return 0, samples{}, err
		}
		if want < chunk {
			break
		}
		from = last + 1
	}
	timed := time.Since(began)

	for k := 0; k <= max; k++ {
		ver := state(o.keys[k].pending.Load()).ver()
		if k%w.passStride != 0 && (ver > 1 || (ver == 1 && k >= w.keys)) {
			if err := cl.get(vGet, k); err != nil {
				return 0, samples{}, err
			}
		}
	}
	return timed, pass, nil
}
