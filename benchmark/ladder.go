package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// perLayer is every metric of a single layer, reported on every workload
// with --trace 1 (0 where the workload does not exercise the layer). They
// are measured from outside: by timing calls into each module's public
// functions and reading its public counters.
var perLayer = []metricDef{
	// wire rung: the TCP client's view.
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "server.get_p99_us", unit: "us", better: "lower"},
	{name: "server.put_p99_us", unit: "us", better: "lower"},
	{name: "server.null_rtt_us", unit: "us", better: "lower"},
	{name: "server.self_get_us", unit: "us", better: "lower"},
	{name: "server.self_put_us", unit: "us", better: "lower"},
	{name: "server.self_scan_us", unit: "us", better: "lower"},
	{name: "server.allocs_per_op", unit: "count", better: "lower"},
	{name: "server.alloc_bytes_per_op", unit: "B", better: "lower"},
	// core rung: the engine shim.
	{name: "core.index_scan_us", unit: "us", better: "lower"},
	{name: "core.entries_per_get", unit: "count", better: "lower"},
	{name: "core.entries_per_scan_row", unit: "count", better: "lower"},
	{name: "heap.fetch_us", unit: "us", better: "lower"},
	{name: "heap.write_us", unit: "us", better: "lower"},
	{name: "heap.pages", unit: "count", better: "lower"},
	{name: "txn.commit_us", unit: "us", better: "lower"},
	{name: "txn.status_us", unit: "us", better: "lower"},
	{name: "txn.txns_per_batch", unit: "count", better: "higher"},
	{name: "txn.sync_skipped_frac", unit: "ratio", better: "higher"},
	// btree rung: btree.Open driven directly.
	{name: "btree.lookup_ns", unit: "ns", better: "lower"},
	{name: "btree.insert_ns", unit: "ns", better: "lower"},
	{name: "btree.scan_row_ns", unit: "ns", better: "lower"},
	{name: "btree.pages_per_lookup", unit: "count", better: "lower"},
	{name: "btree.height", unit: "count", better: "lower"},
	{name: "btree.index_pages", unit: "count", better: "lower"},
	{name: "btree.splits_per_kinsert", unit: "count", better: "lower"},
	{name: "btree.repairs_per_restart", unit: "count", better: "lower"},
	// buffer rung: pool counters on the core rung, buffer.NewPool directly.
	{name: "buffer.hit_rate", unit: "ratio", better: "higher"},
	{name: "buffer.misses_per_op", unit: "count", better: "lower"},
	{name: "buffer.evictions_per_op", unit: "count", better: "lower"},
	{name: "buffer.evict_writebacks_per_op", unit: "count", better: "lower"},
	{name: "buffer.get_hit_ns", unit: "ns", better: "lower"},
	{name: "buffer.get_miss_us", unit: "us", better: "lower"},
	{name: "buffer.flush_pages_per_commit", unit: "count", better: "lower"},
	// storage rung: MemDisk counters on the core rung, disks directly.
	{name: "storage.writes_per_commit", unit: "count", better: "lower"},
	{name: "storage.syncs_per_commit", unit: "count", better: "lower"},
	{name: "storage.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "storage.reads_per_get", unit: "count", better: "lower"},
	{name: "storage.sim_read_us", unit: "us", better: "lower"},
	{name: "storage.sim_write_us", unit: "us", better: "lower"},
	{name: "storage.seal_ns", unit: "ns", better: "lower"},
	{name: "storage.file_read_us", unit: "us", better: "lower"},
	{name: "storage.file_write_us", unit: "us", better: "lower"},
	{name: "storage.file_sync_us", unit: "us", better: "lower"},
	{name: "storage.file_write_wait_us", unit: "us", better: "lower"},
	// budget: does the ladder add up.
	{name: "budget.get_residual_pct", unit: "%", better: "lower"},
	{name: "budget.put_residual_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// exactCounts are the per-layer metrics that are pure counts of a
// single-threaded, timer-free rung: two traced runs of one build at one
// seed must report them identically (-selfcheck requires it).
var exactCounts = []string{
	"core.entries_per_get", "core.entries_per_scan_row", "heap.pages",
	"btree.pages_per_lookup", "btree.height", "btree.index_pages", "btree.splits_per_kinsert",
	"buffer.hit_rate", "buffer.misses_per_op", "buffer.evictions_per_op", "buffer.evict_writebacks_per_op",
	"buffer.flush_pages_per_commit",
	"storage.writes_per_commit", "storage.syncs_per_commit", "storage.bytes_written_per_user_byte", "storage.reads_per_get",
}

// ladderSizes are the iteration counts of the rungs that time a device or
// a pool directly rather than replay the request stream.
type ladderSizes struct {
	nullRTTs  int // wire: requests that do no engine work
	poolHits  int // buffer: Gets of resident pages
	poolTrace int // buffer: Gets over a file 64x the pool
	diskOps   int // storage: operations per simulated-device timing
	syncs     int // storage: fsync trials on the real file
}

var fullSizes = ladderSizes{nullRTTs: 2000, poolHits: 200000, poolTrace: 1500, diskOps: 1000, syncs: 30}

// runLadder is the traced run. A short two-client pass (the untraced
// end-to-end code, for the tails and the commit-batch counters only two
// clients can show) is followed by the ladder: the workload's generated
// request stream, one client, flusher off, replayed against one module's
// public API per rung.
func runLadder(w *workload, seed int64, d time.Duration, sz ladderSizes, traceOut string, logf func(string, ...any)) (map[string]value, *oracle, error) {
	m := map[string]value{}
	for _, def := range perLayer {
		m[def.name] = value{Unit: def.unit}
	}
	set := func(name string, v float64, n int) {
		cur, ok := m[name]
		if !ok {
			panic("undeclared per-layer metric " + name)
		}
		cur.Value, cur.n = v, n
		m[name] = cur
	}

	short, err := runE2E(w, seed, d/3, 1, 1, logf)
	if err != nil {
		return nil, nil, fmt.Errorf("two-client pass: %w", err)
	}
	total := short.o
	gets, puts := short.latencies(vGet), short.latencies(vPut)
	set("server.get_p99_us", percentileUs(nsOf(gets), 0.99), len(gets))
	set("server.put_p99_us", percentileUs(nsOf(puts), 0.99), len(puts))
	set("txn.txns_per_batch", ratio(float64(short.commitTxns), float64(short.commitBatches)), int(short.commitBatches))
	set("txn.sync_skipped_frac", ratio(float64(short.syncSkipped), float64(short.commitTxns)), int(short.commitTxns))
	var repairs float64
	for _, cy := range short.cycles {
		repairs += float64(cy.repairs)
	}
	set("btree.repairs_per_restart", repairs/float64(len(short.cycles)), len(short.cycles))

	// The ladder's request stream: a fixed count, so that the counts the
	// rungs report repeat exactly.
	nOps := int(float64(w.ladderOps) * d.Seconds() / 12)
	if nOps < 50 {
		nOps = 50
	}
	ops := make([]op, nOps)
	g := newGenerator(w, w.mix, seed, 0, 1, w.keys)
	for i := range ops {
		g.next(&ops[i])
	}

	wire, err := wireRung(w, ops, sz.nullRTTs)
	if err != nil {
		return nil, nil, fmt.Errorf("wire rung: %w", err)
	}
	total.absorb(wire.o)
	logf("wire rung: %d ops in %.2fs", nOps, wire.wall.Seconds())
	untraced, err := coreRung(w, ops, false)
	if err != nil {
		return nil, nil, fmt.Errorf("core rung: %w", err)
	}
	total.absorb(untraced.o)
	traced, err := coreRung(w, ops, true)
	if err != nil {
		return nil, nil, fmt.Errorf("traced core rung: %w", err)
	}
	total.absorb(traced.o)
	logf("core rung: %d ops in %.2fs untraced, %.2fs traced", nOps, untraced.wall.Seconds(), traced.wall.Seconds())
	if traceOut != "" {
		if err := wire.tr.writeSpans(traceOut, w.name, "wire"); err != nil {
			return nil, nil, err
		}
		if err := traced.tr.writeSpans(traceOut, w.name, "core"); err != nil {
			return nil, nil, err
		}
	}

	// wire rung metrics.
	set("server.null_rtt_us", percentileUs(wire.null, 0.5), len(wire.null))
	set("server.allocs_per_op", float64(wire.mallocs)/float64(nOps), nOps)
	set("server.alloc_bytes_per_op", float64(wire.allocBytes)/float64(nOps), nOps)

	// core rung metrics: medians over requests of each layer's self time.
	costs := traced.tr.costs()
	layer := func(v verb, k spanKind) (float64, int) {
		var ns []int64
		for i := range costs {
			if costs[i].verb == v {
				if k == kOp {
					ns = append(ns, costs[i].total)
				} else {
					ns = append(ns, costs[i].self[k])
				}
			}
		}
		return percentileUs(ns, 0.5), len(ns)
	}
	for _, sv := range []struct {
		name string
		v    verb
	}{{"server.self_get_us", vGet}, {"server.self_put_us", vPut}, {"server.self_scan_us", vScan}} {
		coreP50, n := layer(sv.v, kOp)
		if n > 0 {
			set(sv.name, percentileUs(nsOf(wire.lat[sv.v]), 0.5)-coreP50, n)
		}
	}
	getScan, nGet := layer(vGet, kIndexScan)
	getFetch, _ := layer(vGet, kHeapFetch)
	set("core.index_scan_us", getScan, nGet)
	set("heap.fetch_us", getFetch, nGet)
	putWrite, nPut := layer(vPut, kHeapWrite)
	putCommit, _ := layer(vPut, kCommit)
	set("heap.write_us", putWrite, nPut)
	set("txn.commit_us", putCommit, nPut)
	if n := traced.counts.statusWrites; n > 0 {
		set("txn.status_us", float64(traced.counts.statusNs)/float64(n)/1e3, int(n))
	}
	c := &traced.counts
	set("core.entries_per_get", ratio(float64(c.getEntries), float64(c.gets)), c.gets)
	set("core.entries_per_scan_row", ratio(float64(c.scanEntries), float64(c.scanRows)), c.scanRows)
	set("heap.pages", float64(c.heapPages), 0)
	set("buffer.hit_rate", ratio(float64(c.hits), float64(c.hits+c.misses)), int(c.hits+c.misses))
	set("buffer.misses_per_op", float64(c.misses)/float64(nOps), nOps)
	set("buffer.evictions_per_op", float64(c.evictClean+c.evictDirty)/float64(nOps), nOps)
	set("buffer.evict_writebacks_per_op", float64(c.evictDirty)/float64(nOps), nOps)
	set("buffer.flush_pages_per_commit", ratio(float64(c.dataWrites-int(c.evictDirty)), float64(c.commits)), c.commits)
	set("storage.writes_per_commit", ratio(float64(c.writes), float64(c.commits)), c.commits)
	set("storage.syncs_per_commit", ratio(float64(c.syncs), float64(c.commits)), c.commits)
	set("storage.bytes_written_per_user_byte", ratio(float64(c.writes)*page.Size, float64(c.userBytes)), 0)
	set("storage.reads_per_get", ratio(float64(c.getMisses), float64(c.gets)), c.gets)

	// budget: the wire p50 minus the wire's own floor (a request that does
	// no engine work) minus the engine spans, as a share of the wire p50.
	null := percentileUs(wire.null, 0.5)
	if nGet > 0 {
		wireGet := percentileUs(nsOf(wire.lat[vGet]), 0.5)
		set("budget.get_residual_pct", 100*(wireGet-null-getScan-getFetch)/wireGet, nGet)
	}
	if nPut > 0 {
		wirePut := percentileUs(nsOf(wire.lat[vPut]), 0.5)
		covered := null + putWrite + putCommit
		for _, k := range []spanKind{kIndexScan, kHeapFetch, kIndexInsert} {
			us, _ := layer(vPut, k)
			covered += us
		}
		set("budget.put_residual_pct", 100*(wirePut-covered)/wirePut, nPut)
	}
	set("trace.overhead_pct", 100*(traced.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds(), nOps)

	if err := btreeRung(w, ops, set); err != nil {
		return nil, nil, fmt.Errorf("btree rung: %w", err)
	}
	if err := bufferRung(seed, sz, set); err != nil {
		return nil, nil, fmt.Errorf("buffer rung: %w", err)
	}
	if err := storageRung(sz, set); err != nil {
		return nil, nil, fmt.Errorf("storage rung: %w", err)
	}
	attempted, failed := total.totals()
	set("failed_frac", float64(failed)/float64(attempted), int(attempted))
	return m, total, nil
}

// ladderStore is a loaded sim100 server with the flusher off, so that what
// a rung counts depends on the request stream alone.
func ladderStore(w *workload) (*instance, *oracle, error) {
	o := newOracle(w.keys)
	in, err := setup(w, o, 0)
	return in, o, err
}

// wireResult is what the wire rung measured.
type wireResult struct {
	o          *oracle
	tr         *tracer
	lat        samples
	null       []int64 // round trips of a request that does no engine work
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
}

// wireRung replays ops over TCP from one client, a span per request.
func wireRung(w *workload, ops []op, nullRTTs int) (*wireResult, error) {
	in, o, err := ladderStore(w)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	cl, err := dial(in.addr, o)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	res := &wireResult{o: o, tr: newTracer(len(ops))}
	cl.tr = res.tr

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	for i := range ops {
		if err := cl.do(&ops[i]); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(began)
	runtime.ReadMemStats(&after)
	res.mallocs, res.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	res.lat = cl.lat

	// The wire's floor: ABORT outside a transaction is read, parsed,
	// dispatched and answered ("ERR notxn") without touching the engine.
	cl.tr = nil
	for i := 0; i < nullRTTs; i++ {
		start := time.Now()
		if err := cl.expectLine("ABORT", "ERR notxn"); err != nil {
			return nil, err
		}
		res.null = append(res.null, int64(time.Since(start)))
	}
	return res, nil
}

// coreCounts are the exact counts the core rung reads off public counters
// around the replay.
type coreCounts struct {
	gets, getEntries, getMisses int
	scanRows, scanEntries       int
	commits                     int
	userBytes                   int64
	hits, misses                int64
	evictClean, evictDirty      uint64
	writes, syncs, dataWrites   int
	heapPages                   int64
	statusWrites, statusNs      uint64 // obs commit.status timer over the replay
}

type coreResult struct {
	o      *oracle
	in     *instance
	tr     *tracer
	wall   time.Duration
	counts coreCounts
}

// coreRung replays ops through the engine shim on a fresh store, checking
// every result against the oracle exactly as the TCP client does.
func coreRung(w *workload, ops []op, traced bool) (*coreResult, error) {
	in, o, err := ladderStore(w)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	res := &coreResult{o: o, in: in}
	e, err := newEngine(in.db)
	if err != nil {
		return nil, err
	}
	if traced {
		// About four spans per read and eight per write.
		res.tr = newTracer(8 * len(ops))
		e.tr = res.tr
	}
	pools := []*buffer.Pool{e.idx.Tree().Pool(), e.rel.Heap().Pool()}
	poolStats := func() (hits, misses int64) {
		for _, p := range pools {
			h, m := p.Stats()
			hits, misses = hits+h, misses+m
		}
		return hits, misses
	}
	diskStats := func() (writes, syncs, dataWrites int) {
		for name, d := range core.MemoryDisks(in.store) {
			wr, sy, _ := d.Stats()
			writes, syncs = writes+wr, syncs+sy
			if name != "control" {
				dataWrites += wr
			}
		}
		return writes, syncs, dataWrites
	}

	statusTimer := func() (count, ns uint64) {
		ts := in.rec.Snapshot().Timers[obs.TStatusWrite.String()]
		return ts.Count, ts.TotalNs
	}

	c := &res.counts
	status0, statusNs0 := statusTimer()
	hits0, misses0 := poolStats()
	writes0, syncs0, data0 := diskStats()
	var (
		key, val   []byte
		keys, vals [][]byte
		sc         scanCheck
	)
	began := time.Now()
	for i := range ops {
		p := &ops[i]
		o.attempts[p.v].Add(1)
		e.entries = 0
		switch p.v {
		case vGet, vGetAbsent:
			lo := o.before(p.key)
			key = appendKey(key[:0], p.key)
			_, m0 := poolStats()
			got, found, err := e.get(key)
			if err != nil {
				o.fail(p.v, "key %d: %v", p.key, err)
				break
			}
			_, m1 := poolStats()
			o.checkGet(p.v, p.key, lo, got, found)
			c.gets++
			c.getEntries += e.entries
			c.getMisses += int(m1 - m0)
		case vScan:
			sc.begin(o, p.key, p.rows)
			rows, err := e.scan(appendKey(key[:0], p.key), p.rows)
			if err != nil {
				o.fail(vScan, "from %d: %v", p.key, err)
				break
			}
			for _, r := range rows {
				sc.row(r.key, r.val)
			}
			sc.finish(-1)
			c.scanRows += len(rows)
			c.scanEntries += e.entries
		case vPut, vPutNew:
			ver := o.beginWrite(p.key, true)
			key, val = appendKey(key[:0], p.key), appendValue(val[:0], p.key, ver)
			if err := e.put(key, val); err != nil {
				o.fail(p.v, "key %d: %v", p.key, err)
				break
			}
			o.ackWrite(p.key)
			c.commits++
			c.userBytes += keyLen + valueLen
		case vDel:
			was := o.before(p.key)
			o.beginWrite(p.key, false)
			found, err := e.del(appendKey(key[:0], p.key))
			if err != nil || found != was.present() {
				o.fail(vDel, "key %d: found=%v err=%v, model present=%v", p.key, found, err, was.present())
				break
			}
			o.ackWrite(p.key)
			c.commits++
		case vMput:
			keys, vals = keys[:0], vals[:0]
			for _, k := range p.keys {
				ver := o.beginWrite(k, true)
				keys = append(keys, appendKey(nil, k))
				vals = append(vals, appendValue(nil, k, ver))
			}
			if err := e.mput(keys, vals); err != nil {
				o.fail(vMput, "from key %d: %v", p.keys[0], err)
				break
			}
			for _, k := range p.keys {
				o.ackWrite(k)
			}
			c.commits++
			c.userBytes += mputPairs * (keyLen + valueLen)
		}
	}
	res.wall = time.Since(began)
	hits1, misses1 := poolStats()
	writes1, syncs1, data1 := diskStats()
	c.hits, c.misses = hits1-hits0, misses1-misses0
	c.writes, c.syncs, c.dataWrites = writes1-writes0, syncs1-syncs0, data1-data0
	c.evictClean, c.evictDirty = in.rec.Get(obs.EvictClean), in.rec.Get(obs.EvictDirty)
	c.heapPages = int64(e.rel.Heap().NumPages())
	status1, statusNs1 := statusTimer()
	c.statusWrites, c.statusNs = status1-status0, statusNs1-statusNs0
	return res, nil
}

// newEngine binds the shim to the relation and index the server opened.
func newEngine(db *core.DB) (*engine, error) {
	rel, err := db.CreateRelation("kv")
	if err != nil {
		return nil, err
	}
	idx, err := db.CreateIndex("kv_pk", core.Shadow)
	if err != nil {
		return nil, err
	}
	return &engine{db: db, rel: rel, idx: idx}, nil
}

type setter func(name string, v float64, n int)

// btreeRung drives btree.Open directly: the index keys the server would
// hold for the loaded data (user key + TID), then the request stream as
// bare tree calls.
func btreeRung(w *workload, ops []op, set setter) error {
	disk := storage.NewMemDisk()
	t, err := btree.Open(disk, btree.Shadow, btree.Options{PoolSize: w.pool})
	if err != nil {
		return err
	}
	tidOf := func(k, ver int) heap.TID {
		// Roughly the heap's packing: 60 tuples a page, later versions on
		// later pages.
		return heap.TID{PageNo: uint32(1 + k/60 + ver*100000), Slot: uint16(k % 60)}
	}
	ikey := func(dst []byte, k, ver int) []byte {
		return append(appendKey(dst, k), tidOf(k, ver).Bytes()...)
	}
	var key []byte
	for k := 0; k < w.keys; k++ {
		key = ikey(key[:0], k, 1)
		if err := t.Insert(key, tidOf(k, 1).Bytes()); err != nil {
			return err
		}
	}
	if err := t.Sync(); err != nil {
		return err
	}
	inserts := w.keys
	vers := map[int]int{}
	var (
		lookupNs, insertNs, scanNs []int64
		lookups, lookupPages       int64
		scanRows                   int
		dst                        []byte
	)
	for i := range ops {
		p := &ops[i]
		switch p.v {
		case vGet:
			key = ikey(key[:0], p.key, 1)
			h0, m0 := t.Pool().Stats()
			start := time.Now()
			dst, err = t.LookupInto(key, dst[:0])
			lookupNs = append(lookupNs, int64(time.Since(start)))
			if err != nil {
				return fmt.Errorf("lookup %d: %w", p.key, err)
			}
			h1, m1 := t.Pool().Stats()
			lookups++
			lookupPages += h1 - h0 + m1 - m0
		case vScan:
			n := 0
			start := time.Now()
			err := t.Scan(appendKey(key[:0], p.key), nil, func(k, v []byte) bool {
				n++
				return n < p.rows
			})
			scanNs = append(scanNs, int64(time.Since(start)))
			if err != nil {
				return fmt.Errorf("scan %d: %w", p.key, err)
			}
			scanRows += n
		case vPut, vPutNew:
			vers[p.key]++
			ver := 1 + vers[p.key]
			key = ikey(key[:0], p.key, ver)
			start := time.Now()
			err := t.Insert(key, tidOf(p.key, ver).Bytes())
			insertNs = append(insertNs, int64(time.Since(start)))
			if err != nil {
				return fmt.Errorf("insert %d: %w", p.key, err)
			}
			inserts++
		}
	}
	sum := func(ns []int64) (s int64) {
		for _, v := range ns {
			s += v
		}
		return s
	}
	set("btree.lookup_ns", percentileUs(lookupNs, 0.5)*1e3, len(lookupNs))
	set("btree.insert_ns", percentileUs(insertNs, 0.5)*1e3, len(insertNs))
	set("btree.scan_row_ns", ratio(float64(sum(scanNs)), float64(scanRows)), scanRows)
	set("btree.pages_per_lookup", ratio(float64(lookupPages), float64(lookups)), int(lookups))
	height, err := t.Height()
	if err != nil {
		return err
	}
	set("btree.height", float64(height), 0)
	set("btree.index_pages", float64(t.NumPages()), 0)
	set("btree.splits_per_kinsert", 1000*float64(t.SplitCount())/float64(inserts), inserts)
	return t.Close()
}

// bufferRung drives buffer.NewPool with a seeded page trace: once over a
// resident set (the hit path), once over a sim100 file 64x the pool (the
// miss path: evict a clean frame, read the page).
func bufferRung(seed int64, sz ladderSizes, set setter) error {
	const pages = 4096
	disk := storage.NewMemDisk()
	img := page.New()
	img.Init(page.TypeHeap, 0)
	for no := storage.PageNo(0); no < pages; no++ {
		if err := disk.WritePage(no, img); err != nil {
			return err
		}
	}
	if err := disk.Sync(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	touch := func(p *buffer.Pool, n, span int) (time.Duration, error) {
		began := time.Now()
		for i := 0; i < n; i++ {
			f, err := p.Get(storage.PageNo(rng.Intn(span)))
			if err != nil {
				return 0, err
			}
			f.Unpin()
		}
		return time.Since(began), nil
	}

	hot := buffer.NewPool(disk, 1024)
	if _, err := touch(hot, 8*512, 512); err != nil { // make 512 pages resident
		return err
	}
	d, err := touch(hot, sz.poolHits, 512)
	if err != nil {
		return err
	}
	set("buffer.get_hit_ns", float64(d.Nanoseconds())/float64(sz.poolHits), sz.poolHits)

	disk.SetLatency(simLatency, simLatency)
	cold := buffer.NewPool(disk, 64)
	_, m0 := cold.Stats()
	if d, err = touch(cold, sz.poolTrace, pages); err != nil {
		return err
	}
	_, m1 := cold.Stats()
	set("buffer.get_miss_us", d.Seconds()*1e6/float64(m1-m0), int(m1-m0))
	return nil
}

// storageRung times the devices themselves: what a "100us" simulated page
// operation really costs here (sleep overshoot), the zero-latency seal
// (copy + CRC), and a real file with fsync in the checkout's build
// directory. The file numbers are the sandbox's, not a device's.
func storageRung(sz ladderSizes, set setter) error {
	img := page.New()
	img.Init(page.TypeHeap, 0)
	buf := page.New()
	mean := func(n int, fn func(i int) error) (float64, error) {
		began := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(began).Nanoseconds()) / float64(n), nil
	}

	mem := storage.NewMemDisk()
	ns, err := mean(20*sz.diskOps, func(i int) error { return mem.WritePage(storage.PageNo(i%256), img) })
	if err != nil {
		return err
	}
	set("storage.seal_ns", ns, 20*sz.diskOps)
	mem.SetLatency(simLatency, simLatency)
	if ns, err = mean(sz.diskOps, func(i int) error { return mem.WritePage(storage.PageNo(i%256), img) }); err != nil {
		return err
	}
	set("storage.sim_write_us", ns/1e3, sz.diskOps)
	if ns, err = mean(sz.diskOps, func(i int) error { return mem.ReadPage(storage.PageNo(i%256), buf) }); err != nil {
		return err
	}
	set("storage.sim_read_us", ns/1e3, sz.diskOps)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "filedisk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fd, err := storage.OpenFileDisk(dir + "/bench.pg")
	if err != nil {
		return err
	}
	defer fd.Close()
	if ns, err = mean(2*sz.diskOps, func(i int) error { return fd.WritePage(storage.PageNo(i%256), img) }); err != nil {
		return err
	}
	set("storage.file_write_us", ns/1e3, 2*sz.diskOps)
	if err := fd.Sync(); err != nil {
		return err
	}
	if ns, err = mean(2*sz.diskOps, func(i int) error { return fd.ReadPage(storage.PageNo(i%256), buf) }); err != nil {
		return err
	}
	set("storage.file_read_us", ns/1e3, 2*sz.diskOps)

	// A sync after eight page writes (about one small commit), and a write
	// issued while such a sync is in flight: FileDisk holds one mutex
	// across fsync, so the write waits the sync out.
	var syncNs, waitNs []int64
	for i := 0; i < sz.syncs; i++ {
		for no := 0; no < 8; no++ {
			if err := fd.WritePage(storage.PageNo(no), img); err != nil {
				return err
			}
		}
		started, done := make(chan struct{}), make(chan error, 1)
		go func() {
			close(started)
			start := time.Now()
			err := fd.Sync()
			syncNs = append(syncNs, int64(time.Since(start)))
			done <- err
		}()
		<-started
		// Let the sync take the mutex. A sleep would overshoot the whole
		// fsync here (see storage.sim_*_us), so spin.
		for spin := time.Now(); time.Since(spin) < 20*time.Microsecond; {
			runtime.Gosched()
		}
		start := time.Now()
		werr := fd.WritePage(100, img)
		waitNs = append(waitNs, int64(time.Since(start)))
		if err := <-done; err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
	}
	set("storage.file_sync_us", percentileUs(syncNs, 0.5), sz.syncs)
	set("storage.file_write_wait_us", percentileUs(waitNs, 0.5), sz.syncs)
	return nil
}

// buildDir is where run.sh builds and where the storage rung keeps its
// scratch file: inside the checkout, named in .gitignore.
const buildDir = ".bench_build"
