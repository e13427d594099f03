package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
)

// runRebuild implements the rebuild subcommand: open a DB directory and
// reconstruct one index wholesale from its heap relation with the
// bottom-up bulk loader. The swap is a single durable root install — a
// crash mid-rebuild leaves the old index serving. The index's keys must
// equal the tuple data (the identity keyOf convention used by the repo's
// tools); schema-specific key extraction needs the embedding application.
func runRebuild(args []string) {
	fs := flag.NewFlagSet("rebuild", flag.ExitOnError)
	rDir := fs.String("dir", "", "DB directory (required)")
	rRel := fs.String("rel", "", "heap relation name (required)")
	rIndex := fs.String("index", "", "index name (required)")
	rVariant := fs.String("variant", "shadow", "index variant: normal, shadow, reorg, hybrid")
	rShards := fs.Int("shards", 0, "shard count of the index (0 or 1 = one tree)")
	rFill := fs.Float64("fill", 0, "leaf/internal fill factor, clamped to [0.5,1.0] (0 = default 0.90)")
	_ = fs.Parse(args)
	if *rDir == "" || *rRel == "" || *rIndex == "" {
		fmt.Fprintln(os.Stderr, "usage: fastrec-dump rebuild -dir <dbdir> -rel <name> -index <name> [-variant v] [-shards n] [-fill f]")
		os.Exit(2)
	}
	variant, err := btree.ParseVariant(*rVariant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// core.Dir creates missing directories and files, so a typo'd -dir
	// would silently fabricate an empty DB and "rebuild" 0 keys. Require
	// an existing DB (its control file) before opening anything.
	if _, err := os.Stat(filepath.Join(*rDir, "control.pg")); err != nil {
		fmt.Fprintf(os.Stderr, "rebuild: %s does not hold a DB (no control.pg): %v\n", *rDir, err)
		os.Exit(1)
	}
	stats, err := rebuildDir(*rDir, *rRel, *rIndex, variant, *rShards, *rFill)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("rebuild: %d visible keys -> %d leaves, %d internal pages, %d levels across %d shard(s) in %v\n",
		stats.Keys, stats.Leaves, stats.Internal, stats.Levels, stats.Shards, stats.Wall.Round(time.Millisecond))
}

// rebuildDir opens the directory-backed DB and rebuilds the named index
// from the named relation with the identity keyOf.
func rebuildDir(dir, relName, indexName string, variant btree.Variant, shards int, fill float64) (core.RebuildStats, error) {
	db, err := core.Open(core.Dir(dir), core.Config{LoadFill: fill})
	if err != nil {
		return core.RebuildStats{}, err
	}
	defer db.Close()
	rel, err := db.CreateRelation(relName)
	if err != nil {
		return core.RebuildStats{}, err
	}
	ix, err := db.CreateIndexN(indexName, variant, shards)
	if err != nil {
		return core.RebuildStats{}, err
	}
	return ix.Rebuild(rel, func(data []byte) []byte { return data })
}
