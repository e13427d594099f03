package exthash_test

import (
	"fmt"
	"log"

	"repro/internal/exthash"
	"repro/internal/storage"
)

// §1 of the paper claims the recovery techniques apply beyond B-link trees,
// naming extensible hash indices. Crash a sync while buckets split and watch
// first-use recovery repair the shadowed buckets and directory.
func Example() {
	k := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	disk := storage.NewMemDisk()
	ix, err := exthash.Open(disk, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	const committed = 3000
	for i := 0; i < committed; i++ {
		if err := ix.Insert(k(i), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	if err := ix.Sync(); err != nil {
		log.Fatal(err)
	}
	g, err := ix.GlobalDepth()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d keys; directory depth %d after %d bucket splits and %d doublings\n",
		committed, g, ix.Splits, ix.Doublings)

	// More inserts split buckets; the machine dies mid-sync.
	for i := committed; i < committed+500; i++ {
		if err := ix.Insert(k(i), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	if err := ix.Pool().FlushDirty(); err != nil {
		log.Fatal(err)
	}
	if err := disk.CrashPartial(func(p []storage.PageNo) []storage.PageNo {
		return p[:len(p)/2]
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CRASH: half the pending pages reached the disk")

	ix2, err := exthash.Open(disk, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		if _, err := ix2.Lookup(k(i)); err != nil {
			log.Fatalf("committed key %d lost: %v", i, err)
		}
	}
	fmt.Printf("all %d committed keys recovered (%d bucket repairs, %d directory repairs)\n",
		committed, ix2.Repairs, ix2.DirRepairs)
	if err := ix2.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("structure check: OK")
	// Output:
	// committed 3000 keys; directory depth 3 after 7 bucket splits and 3 doublings
	// CRASH: half the pending pages reached the disk
	// all 3000 committed keys recovered (13 bucket repairs, 0 directory repairs)
	// structure check: OK
}
