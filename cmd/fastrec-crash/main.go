// Command fastrec-crash drives the crash-injection harness interactively:
// it builds an index, commits a baseline, performs more work, crashes the
// simulated disk during the sync with a random (or exhaustively enumerated)
// durable subset, and then reopens the index and verifies the paper's
// recovery guarantee — every committed key present, structure valid after
// the lazy repairs complete.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/btree"
	"repro/internal/storage"
)

var (
	variantName   = flag.String("variant", "shadow", "index variant: shadow, reorg, hybrid")
	nPre          = flag.Int("committed", 5000, "keys committed before the crash window")
	nPost         = flag.Int("inflight", 500, "keys inserted but not committed when the crash hits")
	rounds        = flag.Int("rounds", 20, "random crash rounds")
	enumerate     = flag.Bool("enumerate", false, "exhaustively enumerate durable subsets of a single-split crash (ignores -inflight)")
	seed          = flag.Int64("seed", 42, "crash subset RNG seed")
	verbose       = flag.Bool("v", false, "print per-round details")
	faults        = flag.Bool("faults", false, "run over a FaultDisk: torn page writes at crash time plus transient I/O errors")
	nestedFaults  = flag.Bool("nested-faults", false, "crash a second time in the middle of recovery: run partial repairs after the first crash, crash again with a random durable subset, then verify")
	tornProb      = flag.Float64("torn-prob", 1.0, "with -faults: probability a surviving fresh-page write is torn")
	transientProb = flag.Float64("transient-prob", 0.01, "with -faults: probability a read/write fails transiently")
)

// newDisk builds the round's crashable disk: a plain MemDisk, or — with
// -faults — a FaultDisk over it injecting torn writes and transient errors.
func newDisk(faultSeed int64) (storage.Crasher, error) {
	if !*faults {
		return storage.NewMemDisk(), nil
	}
	return storage.NewFaultDisk(storage.NewMemDisk(), storage.FaultConfig{
		Seed:               faultSeed,
		TornWriteProb:      *tornProb,
		TornMode:           storage.TearFresh,
		TransientReadProb:  *transientProb,
		TransientWriteProb: *transientProb,
	})
}

func main() {
	flag.Parse()
	variant, err := btree.ParseVariant(*variantName)
	if err == nil && variant == btree.Normal {
		err = errors.New("the normal B-link tree has no crash recovery to test")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *enumerate {
		runEnumeration(variant)
		return
	}
	if *bulkload {
		runBulkload(variant)
		return
	}
	rng := rand.New(rand.NewSource(*seed))
	failed := 0
	for round := 0; round < *rounds; round++ {
		repairs, err := runRound(variant, rng, *seed+int64(round))
		if err != nil {
			fmt.Fprintf(os.Stderr, "round %d: RECOVERY FAILED: %v\n", round, err)
			failed++
			continue
		}
		if *verbose {
			fmt.Printf("round %3d: recovered, %d repairs\n", round, repairs)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d rounds FAILED verification\n", failed, *rounds)
		os.Exit(1)
	}
	mode := ""
	if *faults {
		mode = " (with fault injection)"
	}
	if *nestedFaults {
		mode += " (with a nested crash during recovery)"
	}
	fmt.Printf("%d random crash rounds on the %v index%s: all committed keys recovered, structure valid.\n",
		*rounds, variant, mode)
}

func key(i int) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, uint32(i))
	return k
}

func build(d storage.Crasher, variant btree.Variant, committed, inflight int) (storage.Crasher, *btree.Tree, error) {
	tr, err := btree.Open(d, variant, btree.Options{})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < committed; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			return nil, nil, err
		}
	}
	if err := tr.Sync(); err != nil {
		return nil, nil, err
	}
	for i := committed; i < committed+inflight; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			return nil, nil, err
		}
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		return nil, nil, err
	}
	return d, tr, nil
}

func runRound(variant btree.Variant, rng *rand.Rand, faultSeed int64) (repairs uint64, err error) {
	disk, err := newDisk(faultSeed)
	if err != nil {
		return 0, err
	}
	d, _, err := build(disk, variant, *nPre, *nPost)
	if err != nil {
		return 0, err
	}
	if err := crashRandom(d, rng); err != nil {
		return 0, err
	}
	if *nestedFaults {
		if err := nestedCrash(d, variant, rng); err != nil {
			return 0, err
		}
	}
	return verify(d, variant, *nPre)
}

// crashRandom crashes the disk keeping a random durable subset of the
// pending writes.
func crashRandom(d storage.Crasher, rng *rand.Rand) error {
	return d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
		var keep []storage.PageNo
		for _, no := range pending {
			if rng.Intn(2) == 0 {
				keep = append(keep, no)
			}
		}
		return keep
	})
}

// nestedCrash models a crash during recovery: reopen the index after the
// first crash, drive a sample of lookups so the lazy repairs start running
// (with any fault injection still armed), flush the partially repaired
// state, and crash again keeping only a random subset of the repair
// writes durable. Every repair case must be idempotent for the subsequent
// verify pass to succeed.
func nestedCrash(d storage.Crasher, variant btree.Variant, rng *rand.Rand) error {
	tr, err := btree.Open(d, variant, btree.Options{})
	if err != nil {
		return fmt.Errorf("nested reopen: %w", err)
	}
	step := *nPre/16 + 1
	for i := 0; i < *nPre; i += step {
		// Transient-fault lookups may fail mid-repair; the final verify
		// pass re-runs the repair, which is the property under test.
		_, _ = tr.Lookup(key(i))
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		return fmt.Errorf("nested flush: %w", err)
	}
	if err := crashRandom(d, rng); err != nil {
		return fmt.Errorf("nested crash: %w", err)
	}
	return nil
}

func verify(d storage.Disk, variant btree.Variant, committed int) (uint64, error) {
	tr, err := btree.Open(d, variant, btree.Options{})
	if err != nil {
		return 0, err
	}
	for i := 0; i < committed; i++ {
		if _, err := tr.Lookup(key(i)); err != nil {
			return 0, fmt.Errorf("committed key %d lost: %w", i, err)
		}
	}
	if err := tr.RecoverAll(); err != nil {
		return 0, err
	}
	if err := tr.Check(btree.CheckStrict); err != nil {
		return 0, err
	}
	return tr.Stats.RepairsInterPage.Load() + tr.Stats.RepairsRoot.Load() +
		tr.Stats.RepairsIntraPage.Load() + tr.Stats.RepairsPeer.Load(), nil
}

// runEnumeration reproduces the exhaustive single-split experiment: one
// more key splits a leaf; every one of the 2^n durable subsets of the
// pages written by that split is crashed and recovered.
func runEnumeration(variant btree.Variant) {
	// Find a committed count whose next insert splits a leaf.
	probeDisk := storage.NewMemDisk()
	probe, err := btree.Open(probeDisk, variant, btree.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := 0
	for probe.Stats.Splits.Load() == 0 || n < *nPre {
		if err := probe.Insert(key(n), []byte("v")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n++
	}
	base := probe.Stats.Splits.Load()
	for probe.Stats.Splits.Load() == base {
		if err := probe.Insert(key(n), []byte("v")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n++
	}
	committed := n - 1

	probe0, err := newDisk(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d0, _, err := build(probe0, variant, committed, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pages := len(d0.PendingPages())
	if pages > 16 {
		fmt.Fprintf(os.Stderr, "split touched %d pages; enumeration too large\n", pages)
		os.Exit(1)
	}
	total := uint64(1) << pages
	fmt.Printf("enumerating %d durable subsets of the %d pages written by one %v leaf split...\n",
		total, pages, variant)
	failed := 0
	for mask := uint64(0); mask < total; mask++ {
		disk, err := newDisk(int64(mask))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d, _, err := build(disk, variant, committed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := d.CrashPartial(storage.CrashSubsetMask(mask)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := verify(d, variant, committed); err != nil {
			fmt.Fprintf(os.Stderr, "subset %0*b: RECOVERY FAILED: %v\n", pages, mask, err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d subsets FAILED recovery\n", failed, total)
		os.Exit(1)
	}
	fmt.Printf("all %d subsets recovered: no committed key lost, structure valid.\n", total)
}
