// Command fastrec-dump inspects an index file: header summary, structure
// dump, integrity check, recovery statistics, and optional maintenance
// (recover-all, vacuum, merge). It operates on the durable image exactly as
// a restarted DBMS would — lazy repairs run only if -recover is given.
//
//	fastrec-dump -file idx.pg -variant shadow -check -stats
//	fastrec-dump -file idx.pg -variant reorg -dump
//	fastrec-dump -file idx.pg -variant shadow -recover -vacuum
//
// The scrub subcommand walks every page of a file and verifies the
// format-v2 header checksums — the on-demand detector for torn page writes
// and media decay. With -repair it routes the damage through the index's
// crash-repair machinery and verifies the file comes back clean; pages
// repair concludes are unrecoverable are quarantined and reported
// distinctly. Exit status: 0 the file is clean, 1 damage was found (and,
// with -repair, fully repaired), 2 unrecoverable damage remains:
//
//	fastrec-dump scrub -file idx.pg
//	fastrec-dump scrub -file idx.pg -variant shadow -repair
//
// The rebuild subcommand reconstructs an index wholesale from its heap
// relation with the bottom-up bulk loader (tuple data must equal the
// indexed key — the identity keyOf convention). The new tree replaces the
// old in one durable root install, so a crash mid-rebuild leaves the old
// index serving:
//
//	fastrec-dump rebuild -dir dbdir -rel acct -index acct_pk
//	fastrec-dump rebuild -dir dbdir -rel acct -index acct_pk -variant reorg
//
// The trace subcommand replays recovery with the observability recorder
// attached and pretty-prints the resulting event timeline — every injected
// fault classification, prevPtr re-copy, and §3.4 case diagnosis in the
// order it fired — plus the nonzero repair counters. With -json it emits
// the raw obs snapshot instead:
//
//	fastrec-dump trace -file idx.pg -variant reorg
//	fastrec-dump trace -file idx.pg -variant reorg -json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/vacuum"
)

var (
	file        = flag.String("file", "", "index page file (required)")
	variantName = flag.String("variant", "shadow", "index variant: normal, shadow, reorg, hybrid")
	doDump      = flag.Bool("dump", false, "print the tree structure")
	doCheck     = flag.Bool("check", false, "run the structural integrity check")
	doStrict    = flag.Bool("strict", false, "with -check: also verify the peer chain")
	doStats     = flag.Bool("stats", false, "print size and recovery statistics")
	doRecover   = flag.Bool("recover", false, "run all pending lazy repairs now")
	doVacuum    = flag.Bool("vacuum", false, "regenerate the freelist (implies a sync)")
	doMerge     = flag.Bool("merge", false, "merge underfull pages (implies syncs)")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scrub" {
		runScrub(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "rebuild" {
		runRebuild(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "usage: fastrec-dump -file <index.pg> [-variant v] [-dump|-check|-stats|-recover|-vacuum|-merge]")
		os.Exit(2)
	}
	variant, err := btree.ParseVariant(*variantName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	disk, err := storage.OpenFileDisk(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer disk.Close()
	rec := obs.New(0)
	tr, err := btree.Open(disk, variant, btree.Options{Obs: rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Open leaves a walk of the whole index running in the background. An
	// offline tool gains nothing from that: wait, so that a plain -dump
	// does not close the file under the walk, and report its error here.
	if err := tr.AwaitBound(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *doRecover {
		if err := tr.RecoverAll(); err != nil {
			fmt.Fprintf(os.Stderr, "recover: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("recover: all lazy repairs completed")
	}
	if *doMerge {
		st, err := tr.MergeUnderfull()
		if err != nil {
			fmt.Fprintf(os.Stderr, "merge: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("merge: %d pages merged (%d examined, %d syncs)\n", st.Merged, st.Examined, st.Syncs)
	}
	if *doVacuum {
		st, err := vacuum.Index(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vacuum: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("vacuum: %d pages reclaimed (%d scanned, %d reachable)\n",
			st.Reclaimed, st.ScannedPages, st.ReachablePages)
	}
	if *doCheck {
		mode := btree.CheckStructure
		if *doStrict {
			mode = btree.CheckStrict
		}
		if err := tr.Check(mode); err != nil {
			fmt.Printf("check: FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("check: OK")
	}
	if *doStats {
		n, err := tr.Count()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		h, err := tr.Height()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("variant:   %v\n", tr.Variant())
		fmt.Printf("keys:      %d\n", n)
		fmt.Printf("height:    %d levels\n", h)
		fmt.Printf("pages:     %d (freelist %d)\n", tr.NumPages(), tr.Freelist().Len())
		fmt.Printf("repairs:   inter-page=%d intra-page=%d root=%d peer=%d\n",
			rec.Sum(obs.InterPageRepairs), rec.Get(obs.RepairIntraPage),
			rec.Get(obs.RepairRoot), rec.Get(obs.RepairPeer))
		fmt.Printf("counters:  global=%d lastCrash=%d\n",
			tr.Counter().Current(), tr.Counter().LastCrash())
	}
	if *doDump {
		fmt.Print(tr.Dump())
	}
	if *doRecover || *doMerge || *doVacuum {
		if err := tr.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close: %v\n", err)
			os.Exit(1)
		}
	}
}

// scrubFile walks every page of the file and returns the page numbers whose
// stored checksum does not match their contents (zeroed pages are clean:
// they are the canonical never-written image).
func scrubFile(path string, verbose bool) (bad []storage.PageNo, total storage.PageNo, err error) {
	// OpenFileDisk creates missing files; a scrub of a typo'd path must
	// report the mistake, not manufacture an empty-but-clean index.
	if _, err := os.Stat(path); err != nil {
		return nil, 0, err
	}
	disk, err := storage.OpenFileDisk(path)
	if err != nil {
		return nil, 0, err
	}
	defer disk.Close()
	buf := page.New()
	total = disk.NumPages()
	for no := storage.PageNo(0); no < total; no++ {
		if err := disk.ReadPage(no, buf); err != nil {
			return nil, total, fmt.Errorf("page %d: %w", no, err)
		}
		if !buf.ChecksumOK() {
			bad = append(bad, no)
			if verbose {
				fmt.Printf("page %6d: CHECKSUM MISMATCH (stored %08x, computed %08x)\n",
					no, buf.Checksum(), buf.ComputeChecksum())
			}
		} else if verbose {
			fmt.Printf("page %6d: ok (%v)\n", no, buf.Type())
		}
	}
	return bad, total, nil
}

// runScrub implements the scrub subcommand: verify every page checksum,
// optionally repair through the index's recovery machinery, and report the
// outcome through the exit status — 0 the file is clean, 1 damage was found
// (and, with -repair, fully repaired), 2 unrecoverable damage remains
// (quarantined pages, or a damaged meta page).
func runScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	sFile := fs.String("file", "", "index page file (required)")
	sVariant := fs.String("variant", "shadow", "index variant (for -repair): normal, shadow, reorg, hybrid")
	sRepair := fs.Bool("repair", false, "route damaged pages through crash repair, then re-verify")
	sVerbose := fs.Bool("v", false, "print per-page results")
	_ = fs.Parse(args)
	if *sFile == "" {
		fmt.Fprintln(os.Stderr, "usage: fastrec-dump scrub -file <index.pg> [-variant v] [-repair] [-v]")
		os.Exit(2)
	}

	bad, total, err := scrubFile(*sFile, *sVerbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(bad) == 0 {
		fmt.Printf("scrub: %d pages verified, all checksums OK\n", total)
		return
	}
	fmt.Printf("scrub: %d of %d pages DAMAGED: %v\n", len(bad), total, bad)
	if !*sRepair {
		os.Exit(1)
	}
	for _, no := range bad {
		if no == 0 {
			fmt.Fprintln(os.Stderr, "scrub: meta page 0 is UNRECOVERABLE; it has no redundant copy and cannot be repaired")
			os.Exit(2)
		}
	}

	variant, err := btree.ParseVariant(*sVariant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rec, quarantined, err := repairFile(*sFile, variant, bad)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrub: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("repair: %d damaged reads routed into crash repair, %d pages rebuilt\n",
		rec.Get(obs.ZeroRoute), rec.Get(obs.TornRepair))
	if len(quarantined) > 0 {
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "scrub: page %d UNRECOVERABLE (quarantined): %s\n", q.PageNo, q.Reason)
		}
		fmt.Fprintf(os.Stderr, "scrub: %d of %d pages unrecoverable; the rest of the key space remains readable\n",
			len(quarantined), total)
		os.Exit(2)
	}

	still, total, err := scrubFile(*sFile, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(still) > 0 {
		fmt.Fprintf(os.Stderr, "scrub: %d of %d pages still damaged after repair: %v\n", len(still), total, still)
		os.Exit(2)
	}
	fmt.Printf("scrub: %d pages re-verified after repair, all checksums OK\n", total)
	os.Exit(1) // damage was found and repaired; 0 means the file was clean
}

// repairFile routes every damaged page of the index file through the
// crash-repair machinery: RecoverAvailable rebuilds reachable damage in
// place ("this page never became durable") while stepping over subtrees
// repair concludes are unrecoverable — those come back quarantined. On a
// fully repaired file the vacuum then reclaims damaged pages that fell off
// the tree (e.g. the orphaned half of an interrupted split), and reclaimed
// damage is cleared by zeroing the dead image; with quarantined pages the
// reachability walk cannot be trusted, so the vacuum and zeroing are
// skipped and the surviving repairs are simply made durable.
func repairFile(path string, variant btree.Variant, bad []storage.PageNo) (*obs.Recorder, []buffer.QuarantinedPage, error) {
	disk, err := storage.OpenFileDisk(path)
	if err != nil {
		return nil, nil, err
	}
	rec := obs.New(0)
	tr, err := btree.Open(disk, variant, btree.Options{Obs: rec})
	if err != nil {
		disk.Close()
		return nil, nil, fmt.Errorf("open for repair: %w", err)
	}
	if _, err := tr.RecoverAvailable(); err != nil {
		disk.Close()
		return nil, nil, fmt.Errorf("repair: %w", err)
	}
	quarantined := tr.Pool().Quarantine().List()
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i].PageNo < quarantined[j].PageNo })
	if len(quarantined) == 0 {
		if _, err := vacuum.Index(tr); err != nil {
			disk.Close()
			return nil, nil, fmt.Errorf("vacuum: %w", err)
		}
		for _, no := range bad {
			if tr.Freelist().Contains(no) {
				if err := tr.Pool().Disk().WritePage(no, page.New()); err != nil {
					disk.Close()
					return nil, nil, fmt.Errorf("zero free page %d: %w", no, err)
				}
			}
		}
	}
	if err := tr.Sync(); err != nil {
		disk.Close()
		return nil, quarantined, fmt.Errorf("sync: %w", err)
	}
	if err := tr.Close(); err != nil {
		disk.Close()
		return rec, quarantined, fmt.Errorf("close: %w", err)
	}
	return rec, quarantined, disk.Close()
}

// traceFile reopens the index with a recorder attached and replays the
// full recovery pass, returning the recorder. Repairs stay buffered in the
// pool — nothing is synced, so the durable image is left as found.
func traceFile(path string, variant btree.Variant) (*obs.Recorder, error) {
	// OpenFileDisk creates missing files; tracing a typo'd path must
	// report the mistake, not trace an empty index.
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	disk, err := storage.OpenFileDisk(path)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	rec := obs.New(obs.DefaultRingCap)
	tr, err := btree.Open(disk, variant, btree.Options{Obs: rec})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	// Waiting here, not inside RecoverAll, keeps open.gate.wait out of the
	// trace: whether the pass had to wait is timing, not recovery.
	if err := tr.AwaitBound(); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if err := tr.RecoverAll(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := tr.Check(btree.CheckStrict); err != nil {
		return nil, fmt.Errorf("check after recovery: %w", err)
	}
	return rec, nil
}

// writeTimeline pretty-prints the recorder's event ring as a recovery
// timeline, followed by the nonzero counters in name order.
func writeTimeline(w io.Writer, rec *obs.Recorder, variant btree.Variant) {
	snap := rec.Snapshot()
	fmt.Fprintf(w, "recovery timeline (variant %v): %d events", variant, len(snap.Events))
	if snap.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped)", snap.Dropped)
	}
	fmt.Fprintln(w)
	for _, e := range snap.Events {
		fmt.Fprintf(w, "%6d  %-16s page %-6d %s\n", e.Seq, e.Kind, e.Page, e.Detail)
	}
	if len(snap.Counters) == 0 {
		fmt.Fprintln(w, "counters: none (clean recovery)")
		return
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "counters:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %d\n", name, snap.Counters[name])
	}
}

// runTrace implements the trace subcommand: replay recovery under the
// recorder and print the timeline (or the raw JSON snapshot).
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	tFile := fs.String("file", "", "index page file (required)")
	tVariant := fs.String("variant", "shadow", "index variant: normal, shadow, reorg, hybrid")
	tJSON := fs.Bool("json", false, "emit the raw obs snapshot as JSON")
	_ = fs.Parse(args)
	if *tFile == "" {
		fmt.Fprintln(os.Stderr, "usage: fastrec-dump trace -file <index.pg> [-variant v] [-json]")
		os.Exit(2)
	}
	variant, err := btree.ParseVariant(*tVariant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rec, err := traceFile(*tFile, variant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	if *tJSON {
		if err := rec.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	writeTimeline(os.Stdout, rec, variant)
}
