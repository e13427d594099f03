package main

// The -bulkload round: crash the process at every sync point during a
// bottom-up bulk load and during a wholesale rebuild (BulkReplace), with a
// random durable subset of the pending writes surviving each crash, and
// verify the loader's atomicity contract — the reopened index serves
// either the complete old state or the complete new state. A torn
// half-built index, or a mix of old and new generations, fails the round.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/btree"
	"repro/internal/storage"
)

var (
	bulkload  = flag.Bool("bulkload", false, "crash at every sync point during bulk load and rebuild, verifying all-or-nothing visibility")
	bulkKeys  = flag.Int("bulk-keys", 2000, "with -bulkload: keys per round")
	bulkTrial = flag.Int("bulk-trials", 8, "with -bulkload: random durable subsets tried per sync point")
)

// errSimCrash marks the simulated power cut; the in-flight load aborts
// with it and the harness reopens from the stable image.
var errSimCrash = errors.New("simulated crash at sync point")

// syncPointCrasher wraps the round's disk and turns the failAt-th Sync
// call (after arming) into a crash: a random subset of the pending writes
// reaches stable storage, the rest are lost, and the sync fails.
type syncPointCrasher struct {
	storage.Crasher
	armed  bool
	failAt int
	calls  int
	rng    *rand.Rand
}

func (d *syncPointCrasher) Sync() error {
	if !d.armed {
		return d.Crasher.Sync()
	}
	d.calls++
	if d.failAt > 0 && d.calls == d.failAt {
		d.armed = false
		_ = d.Crasher.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var keep []storage.PageNo
			for _, no := range pending {
				if d.rng.Intn(2) == 0 {
					keep = append(keep, no)
				}
			}
			return keep
		})
		return errSimCrash
	}
	return d.Crasher.Sync()
}

func bulkOldVal(i int) []byte { return []byte(fmt.Sprintf("old%06d", i)) }
func bulkNewVal(i int) []byte { return []byte(fmt.Sprintf("new%06d", i)) }

func bulkItems(n int, val func(int) []byte) []btree.Item {
	items := make([]btree.Item, n)
	for i := range items {
		items[i] = btree.Item{Key: key(i), Value: val(i)}
	}
	return items
}

func runBulkload(variant btree.Variant) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Dry runs count each phase's sync points.
	loadSyncs, err := bulkRound(variant, false, 0, *seed)
	if err != nil {
		fail(fmt.Errorf("bulk load dry run: %w", err))
	}
	replaceSyncs, err := bulkRound(variant, true, 0, *seed)
	if err != nil {
		fail(fmt.Errorf("bulk replace dry run: %w", err))
	}
	if loadSyncs == 0 || replaceSyncs == 0 {
		fail(fmt.Errorf("bulk paths issued no syncs (load %d, replace %d); enumeration is vacuous",
			loadSyncs, replaceSyncs))
	}
	fmt.Printf("bulk load: crashing at each of %d sync points x %d durable subsets (%v, %d keys)...\n",
		loadSyncs, *bulkTrial, variant, *bulkKeys)
	failed := 0
	run := func(replace bool, syncs int, what string) {
		for failAt := 1; failAt <= syncs; failAt++ {
			for trial := 0; trial < *bulkTrial; trial++ {
				s := *seed + int64(failAt*1000+trial)
				if _, err := bulkRound(variant, replace, failAt, s); err != nil {
					fmt.Fprintf(os.Stderr, "%s sync point %d trial %d: %v\n", what, failAt, trial, err)
					failed++
				} else if *verbose {
					fmt.Printf("%s sync point %d trial %d: ok\n", what, failAt, trial)
				}
			}
		}
	}
	run(false, loadSyncs, "load")
	fmt.Printf("rebuild: crashing at each of %d sync points x %d durable subsets...\n",
		replaceSyncs, *bulkTrial)
	run(true, replaceSyncs, "rebuild")
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d bulk crash trials FAILED verification\n", failed)
		os.Exit(1)
	}
	fmt.Printf("all bulk load/rebuild crash points verified: old index intact or new index complete, never torn.\n")
}

// bulkRound runs one load (or preload + replace) crashing at the
// failAt-th sync point (0 = run to completion and report the sync count),
// then verifies the all-or-nothing contract on the reopened stable image.
func bulkRound(variant btree.Variant, replace bool, failAt int, seed int64) (syncs int, err error) {
	base, err := newDisk(seed)
	if err != nil {
		return 0, err
	}
	d := &syncPointCrasher{Crasher: base, rng: rand.New(rand.NewSource(seed))}
	tr, err := btree.Open(d, variant, btree.Options{})
	if err != nil {
		return 0, err
	}
	hadOld := false
	if replace {
		for i := 0; i < *bulkKeys; i++ {
			if err := tr.Insert(key(i), bulkOldVal(i)); err != nil {
				return 0, err
			}
		}
		if err := tr.Sync(); err != nil {
			return 0, err
		}
		hadOld = true
	}
	d.armed = true
	d.failAt = failAt
	items := bulkItems(*bulkKeys, bulkNewVal)
	var lerr error
	if replace {
		_, lerr = tr.BulkReplace(items)
	} else {
		_, lerr = tr.BulkLoad(items)
	}
	d.armed = false
	if failAt == 0 {
		return d.calls, lerr
	}
	if lerr == nil {
		return d.calls, fmt.Errorf("load survived its own crash at sync point %d", failAt)
	}
	return d.calls, verifyBulkState(d, variant, hadOld)
}

// verifyBulkState reopens the stable image and asserts exactly one
// generation is served, completely.
func verifyBulkState(d storage.Disk, variant btree.Variant, hadOld bool) error {
	tr, err := btree.Open(d, variant, btree.Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	got, err := tr.Lookup(key(0))
	switch {
	case errors.Is(err, btree.ErrKeyNotFound):
		if hadOld {
			return fmt.Errorf("old generation lost: key 0 missing after crashed rebuild")
		}
		// The load never committed; the tree must still be empty.
		if n, cerr := tr.Count(); cerr != nil || n != 0 {
			return fmt.Errorf("torn state: %d keys visible without a committed load (%v)", n, cerr)
		}
	case err != nil:
		return fmt.Errorf("lookup key 0: %w", err)
	default:
		// One generation won; every key must agree with it.
		gen := bulkNewVal
		if hadOld && bytes.Equal(got, bulkOldVal(0)) {
			gen = bulkOldVal
		} else if !bytes.Equal(got, bulkNewVal(0)) {
			return fmt.Errorf("key 0 has foreign value %q", got)
		}
		for i := 0; i < *bulkKeys; i++ {
			got, err := tr.Lookup(key(i))
			if err != nil || !bytes.Equal(got, gen(i)) {
				return fmt.Errorf("torn generations: key %d -> %q, %v", i, got, err)
			}
		}
	}
	if err := tr.RecoverAll(); err != nil {
		return fmt.Errorf("RecoverAll: %w", err)
	}
	if err := tr.Check(btree.CheckStrict); err != nil {
		return fmt.Errorf("Check: %w", err)
	}
	return nil
}
