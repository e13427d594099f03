package rtree_test

import (
	"fmt"
	"log"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// §1 of the paper claims the recovery techniques apply beyond B-link trees,
// naming R-trees. Crash a sync while nodes split and check that every
// committed rectangle survives the reopen, with the shadow triples carrying
// bounding rectangles.
func Example() {
	rect := func(i int) rtree.Rect {
		x, y := int32(i%1000)*10, int32(i/1000)*10
		return rtree.Rect{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}
	}
	disk := storage.NewMemDisk()
	tr, err := rtree.Open(disk, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	const committed = 2000
	for i := 0; i < committed; i++ {
		if err := tr.Insert(rect(i), uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		log.Fatal(err)
	}
	h, err := tr.Height()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d rectangles in a %d-level tree (%d splits)\n", committed, h, tr.Splits)

	for i := committed; i < committed+400; i++ {
		if err := tr.Insert(rect(i), uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		log.Fatal(err)
	}
	if err := disk.CrashPartial(func(p []storage.PageNo) []storage.PageNo {
		return p[:len(p)/2]
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CRASH: half the pending pages reached the disk")

	tr2, err := rtree.Open(disk, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		hits, err := tr2.Search(rect(i))
		if err != nil {
			log.Fatal(err)
		}
		found := false
		for _, hit := range hits {
			found = found || hit.ID == uint64(i)
		}
		if !found {
			log.Fatalf("committed rectangle %d lost", i)
		}
	}
	fmt.Printf("all %d committed rectangles found\n", committed)
	// The searches touched no damaged node; a full pass finds the rest.
	if err := tr2.RecoverAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery pass: repairs=%d widenings=%d\n", tr2.Repairs, tr2.Widenings)
	if err := tr2.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("structure check: OK")
	// Output:
	// committed 2000 rectangles in a 2-level tree (9 splits)
	// CRASH: half the pending pages reached the disk
	// all 2000 committed rectangles found
	// recovery pass: repairs=2 widenings=1
	// structure check: OK
}
