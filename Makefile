# Single entry point for the repo's checks. `make check` is the whole CI:
# vet + build + tier-1 tests + the race-enabled suite + the repair-case
# coverage gate + the degraded-mode/quarantine gate + nested-fault crash
# rounds + a one-iteration smoke of the parallel benchmarks + the serving
# layer smoke (full protocol over TCP, crash-recover round, group-commit
# batching under concurrent clients) + the hot-path and bulk-load gates + the
# restart gate (Open's read budget, the allocation-bound walk behind it, what
# an index call costs beside its tree's) + the read-ahead gate
# (hint-only semantics, the overlap of one request's cold reads, lifecycle) +
# the commit gate (the status append's crash enumeration, the XID ceiling,
# Sync under the shared tree lock, FileDisk without a mutex across its system
# calls) + the wire benchmark's own tests, once. Performance claims are made
# with benchmark/ (see BENCHMARK.json), not from here.

GO ?= go

.PHONY: options check vet build test test-short race repair-coverage quarantine nested-faults bench bench-smoke server-smoke hotpath-smoke bulkload-smoke restart-smoke readahead-smoke commit-smoke benchmark-smoke

check: vet build test race repair-coverage quarantine nested-faults bench-smoke server-smoke hotpath-smoke bulkload-smoke restart-smoke readahead-smoke commit-smoke benchmark-smoke

# The option count, by one rule: the exported fields of every struct whose
# name ends in Options, Config or Policy in non-test Go outside benchmark/,
# plus every flag defined in cmd/. ROADMAP aim 2 quotes this number. Not part
# of check: it measures, it does not gate.
options:
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*'); \
	fields=$$(awk '/^type [A-Za-z0-9_]*(Options|Config|Policy) struct \{/ { on = 1; next } \
		on && /^}/ { on = 0 } \
		on && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*[ \t]/) { s = substr($$0, 1, RLENGTH); n += gsub(/,/, ",", s) + 1 } \
		END { print n + 0 }' $$files); \
	flags=$$(cat $$(find cmd -name '*.go' ! -name '*_test.go') | \
		grep -cE '[A-Za-z_]+\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|StringVar|Float64Var|DurationVar)\("'); \
	echo "options: $$((fields + flags)) ($$fields struct fields, $$flags flags)"

# go vet, and every file as gofmt leaves it.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# Tier-1: the full test suite (see ROADMAP.md).
test:
	$(GO) test ./...

# Quick iteration: skips the file-backed crash enumerations. A fuzz target
# runs its seed corpus here as in any plain go test; only -fuzz mutates.
test-short:
	$(GO) test -short ./...

# The whole repo under the race detector (-short skips the slow crash
# enumerations; the §3.6 shared-mode paths and the observability recorder
# are what the detector is for).
race:
	$(GO) test -race -short ./...

# The coverage gate: counters must prove the §3.3 prevPtr re-copy and every
# §3.4 case (a)-(e) actually fired, or the build fails naming the missing
# cases.
repair-coverage:
	$(GO) test ./internal/btree -run TestRepairCaseCoverage

# The degraded-mode gate: quarantine registry semantics, skip-and-report
# scans, supervisor heal/rebuild, and the health-state machine — including
# the counter-backed Healthy -> Degraded -> Healthy acceptance scenario — and
# a quarantined heap page answered as such over TCP, never as a missing key,
# until the served daemon's sweep heals it.
quarantine:
	$(GO) test ./internal/buffer -run 'TestRetryExhausted|TestZeroRoute|TestMetaPageQuarantine|TestQuarantineBackoff|TestNewPageReleases'
	$(GO) test ./internal/btree -run 'TestDegradedScan|TestHealQuarantined'
	$(GO) test ./internal/core -run 'TestHealth|TestSupervisor'
	$(GO) test ./internal/server -run 'TestServerQuarantinedHeapPage|TestServerSweepHealsQuarantinedHeapPage'

# Crash-during-recovery hardening: the in-process idempotence tests plus a
# few fastrec-crash rounds that crash again while repair is in flight.
nested-faults:
	$(GO) test ./internal/btree -run 'NestedCrash'
	$(GO) run ./cmd/fastrec-crash -variant shadow -rounds 3 -nested-faults -seed 1
	$(GO) run ./cmd/fastrec-crash -variant reorg -rounds 3 -nested-faults -faults -seed 1

# One iteration of each parallel benchmark (proves the concurrency plumbing
# works end to end), plus the disabled-recorder overhead bound: obs calls
# on a nil recorder must stay within a few ns.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 1x ./internal/btree
	$(GO) test ./internal/obs -run TestDisabledOverhead

# Every testing.B benchmark: parallel scaling (E7), the no-log restart (E6),
# the ablations and the hot-path allocation benchmarks. The paper's tables
# come from the cmd/ tools (see EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchmem ./...

# The serving-layer gate: every protocol verb over real TCP, graceful
# shutdown draining an in-flight commit, the wire-level crash-recover round
# for each served variant — shadow, reorg and hybrid —, a store that holds a
# shard count refused, zero server options serving shadow, concurrent clients
# actually coalescing in the group-commit coordinator, and Close joining
# every goroutine the server started, even against a racing Listen — all
# under the race detector, plus the coordinator's own crash-semantics tests
# (batch invisibility on a crash between the shared sync and the status
# write), and ten seconds of FuzzSession mutating one client's byte stream.
server-smoke:
	$(GO) test -race ./internal/server
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSession$$' -fuzztime 10s
	$(GO) test -race ./internal/txn -run 'TestGroupCommit|TestBatch|TestSpill|TestCommit|TestStatusAppend|TestVisibility'

# The hot-path gate: the zero-allocation point-op assertions (a warm lookup
# hit and a no-split insert must not touch the heap) and the allocation bounds
# of a warm KV GET and a warm 50-row KV SCAN, batched inserts racing point
# inserts under the race detector, the scan-resistant eviction tests, and the
# batched MPUT verb end to end over TCP.
hotpath-smoke:
	$(GO) test ./internal/btree -run 'ZeroAllocs|TestInsertBatch|TestLookupInto'
	$(GO) test ./internal/server -run 'TestKVGetAllocs|TestKVScanAllocs'
	$(GO) test -race ./internal/btree -run TestInsertBatchConcurrent
	$(GO) test ./internal/buffer -run TestScanResist
	$(GO) test -race ./internal/server -run TestServerMput

# The bulk-load gate: the loader's differential and property tests against
# the insert path, the core bulk-load/rebuild-from-heap layer (and the
# supervisor's one-pass heap reseed: every key back,
# in-flight ones included, strict-clean, one heap pass per sweep) under the
# race detector, the dump tool's rebuild round trip, and crash enumeration at
# every sync point of a bulk load and a wholesale rebuild for two variants.
bulkload-smoke:
	$(GO) test -race ./internal/btree -run 'TestBulkLoad|TestBulkReplace|TestQuickBulkLoad'
	$(GO) test -race ./internal/core -run 'TestIndexBulkLoad|TestIndexRebuildFromHeap|TestSupervisorRebuildsFromHeap|TestSupervisorReseed'
	$(GO) test ./cmd/fastrec-dump -run TestRebuildDir
	$(GO) run ./cmd/fastrec-crash -variant shadow -bulkload -bulk-keys 1200 -seed 1
	$(GO) run ./cmd/fastrec-crash -variant reorg -bulkload -bulk-keys 1200 -faults -seed 1

# The restart gate, under the race detector: btree.Open and core.CreateIndex
# complete the same one or two device reads whatever the size of the index;
# an index call allocates and reads what its tree's does; lookups
# and scans are served while the background allocation-bound walk is held,
# and an insert waits for it; a parent that points past a lost file extension
# still bounds the next allocation; a reopened crash image takes lookups,
# scans and split-forcing inserts at once; Close joins the walk(s); the walk
# proves linked exactly the leaves whose §3.5.1 verification would change
# nothing (every leaf of an intact crash image, none beside a lost peer update,
# a stale peer token, a zeroed, quarantined or backup-holding leaf, none under
# the ablations), including for an insert that waited on it; and the eager
# recovery pass over a healthy tree writes no page. Then the MPUT repeated-key
# fix over TCP.
restart-smoke:
	$(GO) test -race -count=3 ./internal/btree -run 'TestOpenReadBudget|TestBoundGate|TestLostExtensionBound|TestReopenServesWhileWalking|TestOpenThenCloseJoinsWalk|TestBoundWalkProvesPeerChain|TestRecoverAllWritesNothingWhenHealthy'
	$(GO) test -race -count=3 ./internal/core -run 'TestCreateIndexReadBudget|TestOneShardIndexCostsItsTree|TestCloseJoinsBoundWalks'
	$(GO) test -race ./internal/server -run TestServerMputRepeatedKey

# The read-ahead gate, under the race detector: a hint is advice (a failed
# one leaves no frame, counter, event or quarantine streak, and the demand Get
# that follows classifies the page as if it had never been made; a resident
# page costs a lookup; a hint is no reference to the 2Q sweep); a look-ahead
# scan overlaps the next leaf and the heap pages with the caller's fetches,
# reads no more than a plain scan, and starts nothing on a resident store;
# look-ahead scans race splits and eviction in a 32-frame pool; every way a
# pool's life ends joins the reads in flight; GET over the wire is right when
# longer keys' entries interleave with its own. Then one request, many keys:
# a leaf hint reads what a lookup reads, and a batched insert over a cold
# index reads its leaves several at a time; stale peer pointers hinted by §3.5.1
# verification (past the end of the file, quarantined, freed) leave no trace;
# a cold MPUT-32 answers as 32 PUTs do in a third of the device waves, with no
# more reads and no hint wasted, and a resident one starts nothing; after a
# crash it verifies and re-links its damaged leaves as 32 PUTs do, and on an
# undamaged crash image, whose leaves the restart walk proved linked, it reads
# and waits as on a store that never crashed, with no repair and no exclusive
# fallback.
readahead-smoke:
	$(GO) test -race -count=3 ./internal/buffer -run 'TestHint|TestScanResist'
	$(GO) test -race -count=3 ./internal/btree -run 'TestScanAhead|TestScanAllocsPerLeaf|TestCloseJoinsHints|TestHintLeaf|TestInsertBatchHintsLeavesAhead|TestVerifyPeerPathStalePeers'
	$(GO) test -race -count=3 ./internal/core -run 'TestScanAheadOverlapsReads|TestResidentReadsStartNothing|TestCloseJoinsHints'
	$(GO) test -race -count=3 ./internal/server -run 'TestScanPrefixInterleavedKeys|TestMputOverlapsReads|TestResidentMputStartsNothing|TestPostCrashMputMatchesPuts|TestPostCrashMputWaves'

# The commit gate, under the race detector: the whole internal/txn suite (the
# status append cut at every device call with every subset of its pending
# pages kept, for a batch that fits, fills, crosses and spans three pages; a
# stale successor page is never read; a bad count or version is a typed error;
# a 12-page table opens in one wave of reads; no XID is handed out twice
# across a crash, and the ceiling costs a commit no write; the pipeline: a
# batch forces while the one ahead of it writes its status page, appends in
# ticket order, and two overlapping batches cut at every device call recover
# as a ticket-order prefix), a pool's flush writing every dirty page at once
# while pinning no more than a quarter of the pool, each page once, and
# waiting out a write of a page another flush has at the device, Tree.Sync
# leaving lookups, scans and fitting inserts running while its writes are held
# at the device, FileDisk's concurrent reads, writes and fsync, the wire twin
# of the XID test (BEGIN after the burst), a key written again after an update
# that aborted, died with its connection, failed its force or crashed, a
# durable PUT's device waves with one and two clients, a resident MPUT-32
# whose force of every dirty heap and index page is one wave, and reads that
# resolve the newest version first. Then ten seconds each of FuzzPageImage
# (an arbitrary page image through the descent-time decoders) and
# FuzzStatusPage (an arbitrary sealed status page through readStatusPage and
# OpenManager); minimizing an 8 KiB input runs for a minute by default, so
# it is cut to 100 runs. A failing input lands in the package's
# testdata/fuzz/ directory, to be committed with its fix.
commit-smoke:
	$(GO) test -race -count=3 ./internal/txn
	$(GO) test -race -count=3 ./internal/heap -run TestDeleteReplacesAbortedXmax
	$(GO) test -race -count=3 ./internal/buffer -run 'TestFlushPinsAQuarter|TestFlushWaitsForWriteInFlight'
	$(GO) test -race -count=3 ./internal/btree -run TestSyncDoesNotBlockReaders
	$(GO) test -race -count=3 ./internal/storage -run TestFileDiskConcurrentIO
	$(GO) test -race -count=3 ./internal/server -run 'TestServerXIDNotReusedAfterCrash|TestServerSmoke|TestWriteAfterUncommittedUpdate|TestDurablePutWaves|TestResidentMputForceOneWave|TestNewestFirstMatchesOracle|TestColdGetReadsNewestPageOnly'
	$(GO) test ./internal/page -run '^$$' -fuzz '^FuzzPageImage$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzStatusPage$$' -fuzztime 10s -fuzzminimizetime 100x

# The wire benchmark's own tests (shim = server, a smoke run of all four
# workloads checked against BENCHMARK.json, the generator), run once.
benchmark-smoke:
	$(GO) test ./benchmark
