# Single entry point for the repo's checks. `make check` is the whole CI:
# vet + build + tier-1 tests + the race-enabled suite + the repair-case
# coverage gate + the degraded-mode/quarantine gate + nested-fault crash
# rounds + a one-iteration smoke of the parallel benchmarks + the serving
# layer smoke (full protocol over TCP, crash-recover round, group-commit
# batching under concurrent clients) + the sharding, hot-path and bulk-load
# gates + the restart gate (Open's read budget, the allocation-bound walk
# behind it, what a one-shard index call costs) + the read-ahead gate
# (hint-only semantics, the overlap of one request's cold reads, lifecycle) +
# the commit gate (the status append's crash enumeration, the XID ceiling,
# Sync under the shared tree lock, FileDisk without a mutex across its system
# calls) + the wire benchmark's own tests, once. Performance claims are made
# with benchmark/ (see BENCHMARK.json), not from here.

GO ?= go

.PHONY: check vet build test test-short race repair-coverage quarantine nested-faults bench bench-smoke server-smoke shard-smoke hotpath-smoke bulkload-smoke restart-smoke readahead-smoke commit-smoke benchmark-smoke

check: vet build test race repair-coverage quarantine nested-faults bench-smoke server-smoke shard-smoke hotpath-smoke bulkload-smoke restart-smoke readahead-smoke commit-smoke benchmark-smoke

# go vet, and every file as gofmt leaves it.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# Tier-1: the full test suite (see ROADMAP.md).
test:
	$(GO) test ./...

# Quick iteration: skips the file-backed crash enumerations and fuzzers.
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
# a quarantined heap page answered as such over TCP, never as a missing key.
quarantine:
	$(GO) test ./internal/buffer -run 'TestRetryExhausted|TestZeroRoute|TestMetaPageQuarantine|TestQuarantineBackoff|TestNewPageReleases'
	$(GO) test ./internal/btree -run 'TestDegradedScan|TestHealQuarantined'
	$(GO) test ./internal/core -run 'TestHealth|TestSupervisor'
	$(GO) test ./internal/server -run TestServerQuarantinedHeapPage

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
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 1x .
	$(GO) test ./internal/obs -run TestDisabledOverhead

# The full benchmark suite (paper experiments + parallel scaling).
bench:
	$(GO) test -bench . -benchmem ./...

# The serving-layer gate: every protocol verb over real TCP, graceful
# shutdown draining an in-flight commit, the wire-level crash-recover round
# (one tree and four shards) for each served variant — shadow, reorg and
# hybrid —, zero server options serving shadow, and concurrent clients
# actually coalescing in the group-commit coordinator — all under the race
# detector, plus the coordinator's own crash-semantics tests (batch
# invisibility on a crash between the shared sync and the status write).
server-smoke:
	$(GO) test -race ./internal/server
	$(GO) test -race ./internal/txn -run 'TestGroupCommit|TestBatch|TestSpill|TestCommit|TestStatusAppend|TestVisibility'

# The sharding gate, all under the race detector: core.Index's merged scans
# (order, bounds, prefixes, a degraded leg reported once, the merge over one
# leg) and its parallel recovery sweep (one corrupted leaf reported by every
# sweep, a crash with pending writes in every tree), the core index at four
# shards (crash/recover with every shard dirty, a shard count other than the
# one on disk refused in every direction, the checkpoint reaching every
# shard, supervisor healing a fault in every shard, heap rebuilds that
# respect shard routing), the txn layer's parallel force fan-out across sync
# domains, and a multi-shard server crash/recover round and the refused
# restarts over real TCP.
shard-smoke:
	$(GO) test -race ./internal/core -run 'TestMergeScanOrdering|TestMergeScanBounds|TestMergeScanPrefixSpansShards|TestDegradedShardDoesNotPoisonMerge|TestRouterRecoverParallel|TestRealTreeRecoverThroughRouter'
	$(GO) test -race ./internal/core -run 'TestShard|TestFlushAllCoversEveryShard|TestHealthDegradedServesAndSupervisorHeals'
	$(GO) test -race ./internal/txn -run TestBatchForce
	$(GO) test -race ./internal/server -run TestServerShard

# The hot-path gate: the zero-allocation point-op assertions (a warm lookup
# hit and a no-split insert must not touch the heap) and the allocation bounds
# of a warm KV GET and a warm 50-row KV SCAN, batched inserts racing point
# inserts under the race detector, the scan-resistant eviction tests
# (including the exact legacy-clock fallback for tiny stripes), and the
# batched MPUT verb end to end over TCP.
hotpath-smoke:
	$(GO) test ./internal/btree -run 'ZeroAllocs|TestInsertBatch|TestLookupInto'
	$(GO) test ./internal/server -run 'TestKVGetAllocs|TestKVScanAllocs'
	$(GO) test -race ./internal/btree -run TestInsertBatchConcurrent
	$(GO) test ./internal/buffer -run 'TestScanResist|TestTinyPool'
	$(GO) test -race ./internal/server -run TestServerMput

# The bulk-load gate: the loader's differential and property tests against
# the insert path, the core bulk-load/rebuild-from-heap layer at one shard
# and at four (and the supervisor's one-pass heap reseed: every key back,
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
# a one-shard index call allocates and reads what its tree's does; lookups
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
# a 12-page table opens in two waves of reads; no XID is handed out twice
# across a crash, and the ceiling costs a commit no write; the pipeline: a
# batch forces while the one ahead of it writes its status page, appends in
# ticket order, and two overlapping batches cut at every device call recover
# as a ticket-order prefix), Tree.Sync leaving lookups, scans and fitting
# inserts running while its writes are held at the device, FileDisk's
# concurrent reads, writes and fsync, the wire twin of the XID test (BEGIN
# after the burst), a key written again after an update that aborted, died
# with its connection, failed its force or crashed, a durable PUT's device
# waves with one and two clients, and reads that resolve the newest version
# first.
commit-smoke:
	$(GO) test -race -count=3 ./internal/txn
	$(GO) test -race -count=3 ./internal/heap -run TestDeleteReplacesAbortedXmax
	$(GO) test -race -count=3 ./internal/btree -run TestSyncDoesNotBlockReaders
	$(GO) test -race -count=3 ./internal/storage -run TestFileDiskConcurrentIO
	$(GO) test -race -count=3 ./internal/server -run 'TestServerXIDNotReusedAfterCrash|TestServerSmoke|TestWriteAfterUncommittedUpdate|TestDurablePutWaves|TestNewestFirstMatchesOracle|TestColdGetReadsNewestPageOnly'

# The wire benchmark's own tests (shim = server, a smoke run of all four
# workloads checked against BENCHMARK.json, the generator), run once.
benchmark-smoke:
	$(GO) test ./benchmark
