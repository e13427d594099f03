package main

import (
	"math/rand"
	"time"
)

// verb is one kind of generated request. getAbsent, putNew and the plain
// forms share a wire verb; they are separate here because the generator
// chooses their keys differently and the oracle expects different replies.
type verb uint8

const (
	vGet verb = iota
	vGetAbsent
	vScan
	vPut
	vPutNew
	vDel
	vMput
	numVerbs
)

var verbNames = [numVerbs]string{"GET", "GET-absent", "SCAN", "PUT", "PUT-new", "DEL", "MPUT"}

func (v verb) String() string { return verbNames[v] }

// mputPairs is the batch size of every generated MPUT.
const mputPairs = 32

// mixEntry is one verb's weight in a workload's mix (weights sum to 1000 so
// a mix reads as per-mille).
type mixEntry struct {
	v      verb
	weight int
}

// workload is one set of inputs. Every workload runs the same two phases —
// a steady phase with its own mix, then crash/restart cycles — so that
// every end-to-end metric exists on every workload; what differs is the
// data size relative to the pools, the key distribution, the mix, and how
// the measured seconds are split between the phases.
type workload struct {
	name string
	// keys are loaded before measurement; pool is core.Config.PoolSize
	// (frames per file; 0 = the server's default 1024).
	keys int
	pool int
	// hotKeys, when positive, skews key choice: hotShare of all choices go
	// to that many keys scattered over the key space, the rest are uniform.
	hotKeys int
	// mix is the traffic of the steady phase and of the ladder's request
	// stream; scanRows the SCAN limit it uses.
	mix      []mixEntry
	scanRows int
	// steadyShare is the fraction of --seconds spent in the steady phase.
	// A run then makes one crash/restart cycle per cycleSecs of --seconds
	// (see cycles): a count, not a duration, so that every run of a
	// workload reports over the same cycles however fast the build is.
	steadyShare float64
	cycleSecs   float64
	// steadyClients is the number of closed-loop connections of the steady
	// phase: clients, except on mixed-cold. Two clients that each wait on
	// single page reads settle, per process, into one of two states (their
	// sleeps on the simulated device coalesce, or do not): get_p50_us read
	// 1.85-1.95 ms in about half of all runs and 2.23-2.30 ms in the rest,
	// for the whole run, whatever the seed. One client reads 2.26-2.35 ms.
	steadyClients int
	// burstOps is each client's request count in a crash cycle's burst.
	burstOps int
	// quietKeys, when positive, keeps writers off the keys below it (at most
	// half of keys), and the GET and SCAN metrics are then taken from the
	// first passes' reads of that range: see firstPass.
	quietKeys int
	// passStride thins the timed first pass after a restart: it GETs every
	// passStride-th key. 64 is about one key per heap page of the 20 000-key
	// stores, so nearly every such GET waits for the device once, and the
	// pass is a device-bound time, not a CPU-bound one. walkRows bounds the
	// pass's ordered walk (0 = the whole key space).
	passStride int
	walkRows   int
	// ladderOps is the length of the ladder's request stream at 12 measured
	// seconds (it scales with --seconds): a count, not a duration, so the
	// rungs' counts repeat exactly.
	ladderOps int
}

// hotShare is the share of key choices that go to a skewed workload's hot
// keys. ISSUE.md proposed Zipf(0.99). The simulated device answers in whole
// multiples of about 1.1 ms, so a GET costs zero, one or two device waits
// and nothing in between; under Zipf about half of all GETs touched only
// resident pages whatever the pool size (the mass of the r hottest keys
// grows with log r), the median sat on the step between zero and one wait,
// and get_p50_us spread 76% between seeds. A hot set that stays resident
// plus a uniform rest keeps the hot-set-versus-scan tension the workload is
// for, and puts the middle half of GETs on one step.
const hotShare = 0.15

// The four workloads; BENCHMARK.json and README.md say why each exists.
var workloads = []workload{
	{
		// Everything resident, reads only: server, core, btree descent,
		// heap fetch and the buffer hit path do all the steady work.
		name: "read-hot",
		keys: 20000, scanRows: 50, steadyShare: 0.7, steadyClients: clients, cycleSecs: 4, burstOps: 60, passStride: 64, ladderOps: 20000,
		mix: []mixEntry{{vGet, 855}, {vGetAbsent, 45}, {vScan, 100}},
	},
	{
		// Everything resident, every request an autocommit: txn commit,
		// buffer flush and storage writes are nearly all of each request.
		name: "write-durable",
		keys: 20000, scanRows: 50, steadyShare: 0.5, steadyClients: clients, cycleSecs: 3.3, burstOps: 60, quietKeys: 10000, passStride: 64, ladderOps: 400,
		mix: []mixEntry{{vPut, 700}, {vPutNew, 100}, {vDel, 100}, {vMput, 100}},
	},
	{
		// Data about twenty times the pools, a small hot set, writers
		// beside readers: buffer miss/evict/write-back and storage reads
		// dominate.
		name: "mixed-cold",
		keys: 200000, pool: 128, hotKeys: 64, scanRows: 100, steadyShare: 0.7, steadyClients: 1, cycleSecs: 10, burstOps: 60, passStride: 200, walkRows: 10000, ladderOps: 2500,
		mix: []mixEntry{{vGet, 800}, {vScan, 100}, {vPut, 100}},
	},
	{
		// All measured time in crash cycles. Its mix is only the ladder's
		// stream: the verbs its bursts and first passes send.
		name: "crash-restart",
		keys: 20000, scanRows: 50, steadyShare: 0, cycleSecs: 1.25, burstOps: 60, quietKeys: 10000, passStride: 64, ladderOps: 800,
		mix: []mixEntry{{vGet, 600}, {vScan, 10}, {vPut, 290}, {vMput, 100}},
	},
}

// cycles is how many crash/restart cycles a run of d makes: at least two.
func (w *workload) cycles(d time.Duration) int {
	return max(2, int(d.Seconds()/w.cycleSecs))
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// burstMix is the write traffic of every crash cycle's burst.
var burstMix = []mixEntry{{vPut, 750}, {vMput, 250}}

// op is one generated request. key is a key number (see appendKey); keys
// holds an MPUT's distinct key numbers.
type op struct {
	v    verb
	key  int
	rows int
	keys [mputPairs]int
}

// generator produces one client's request stream from (seed, client). The
// stream depends on nothing but those two and the workload, so the same
// seed gives the same inputs; a time-bound phase consumes a prefix of it.
//
// Writers own disjoint key partitions (key mod clients == client) and an
// MPUT never repeats a key: the engine fails both a concurrent same-key
// PUT and a duplicate key inside one MPUT (see README, "known engine
// failures the generator avoids").
type generator struct {
	w       *workload
	rng     *rand.Rand
	client  int
	clients int
	total   int // sum of mix weights
	mix     []mixEntry
	turn    int // where in the mix's weights the next request falls
	nextNew int // next new key number this client owns (from the phase's newBase)
}

func newGenerator(w *workload, mix []mixEntry, seed int64, client, clients, newBase int) *generator {
	g := &generator{
		w: w, mix: mix, client: client, clients: clients,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1)),
	}
	for _, m := range mix {
		g.total += m.weight
	}
	g.turn = g.rng.Intn(g.total)
	g.nextNew = newBase
	for g.nextNew%clients != client {
		g.nextNew++
	}
	return g
}

// anyKey picks a loaded key by the workload's distribution. The hot keys
// are spread evenly over the key space, so each sits on its own heap and
// index page.
func (g *generator) anyKey() int {
	if g.w.hotKeys > 0 && g.rng.Float64() < hotShare {
		return g.rng.Intn(g.w.hotKeys)*(g.w.keys/g.w.hotKeys) + 17
	}
	return g.rng.Intn(g.w.keys)
}

// ownKey picks a loaded key this client owns, outside the quiet range.
func (g *generator) ownKey() int {
	k := g.anyKey()
	if k < g.w.quietKeys {
		k += g.w.quietKeys
	}
	k -= k % g.clients
	k += g.client
	if k >= g.w.keys {
		k -= g.clients
	}
	return k
}

// verbStep spreads the verbs of a mix evenly over a stream: request i falls
// at (start + i*verbStep) mod total of the weights, which visits every
// residue once per total requests (387 shares no factor with the 1000 the
// weights sum to), so any stretch of a stream holds each verb in its share
// to within one or two. A random choice per request left a 60-request burst
// with 9 to 21 MPUTs, and the burst-derived metrics moved with the count.
const verbStep = 387

func (g *generator) next(o *op) {
	r := g.turn
	g.turn = (g.turn + verbStep) % g.total
	var v verb
	for _, m := range g.mix {
		if r < m.weight {
			v = m.v
			break
		}
		r -= m.weight
	}
	o.v = v
	switch v {
	case vGet:
		o.key = g.anyKey()
	case vGetAbsent:
		o.key = absentBase + g.rng.Intn(1000000)
	case vScan:
		o.key, o.rows = g.anyKey(), g.w.scanRows
	case vPut, vDel:
		o.key = g.ownKey()
	case vPutNew:
		o.key = g.nextNew
		g.nextNew += g.clients
	case vMput:
		for i := 0; i < mputPairs; {
			k := g.ownKey()
			dup := false
			for _, have := range o.keys[:i] {
				dup = dup || have == k
			}
			if !dup {
				o.keys[i] = k
				i++
			}
		}
	}
}
