package wal_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/wal"
)

// §4 of the paper argues a conventional WAL DBMS can adopt the recovery
// techniques to replace physical index logging (every key moved by a split
// logged as a delete+insert pair) with logical logging (one small record per
// user operation, no split records at all). This runs the same insert
// workload under both disciplines and compares log volume (experiment E5),
// then shows the fault-containment claim: logical recovery regenerates the
// index from operations, so corrupted index bytes can never ride the log
// back in.
func Example_logVolume() {
	const n = 20000
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	newIdx := func(v btree.Variant) *btree.Tree {
		t, err := btree.Open(storage.NewMemDisk(), v, btree.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	keysPerPage := model.LeafFanout(4, 9)

	// The physical manager drives a normal B-link tree (it needs the log for
	// crash consistency); the logical manager drives a shadow tree (the index
	// recovers itself, so splits log nothing).
	phys := wal.NewManager(wal.Physical, newIdx(btree.Normal), keysPerPage)
	logi := wal.NewManager(wal.Logical, newIdx(btree.Shadow), keysPerPage)
	for i := 0; i < n; i++ {
		if err := phys.Insert(key(i), []byte("v")); err != nil {
			log.Fatal(err)
		}
		if err := logi.Insert(key(i), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	phys.Commit()
	logi.Commit()

	pb, lb := phys.Log().Bytes(), logi.Log().Bytes()
	fmt.Printf("workload: %d ascending inserts (maximum split rate)\n", n)
	fmt.Printf("%-10s %12s %10s\n", "discipline", "log bytes", "records")
	fmt.Printf("%-10s %12d %10d\n", "physical", pb, phys.Log().Len())
	fmt.Printf("%-10s %12d %10d\n", "logical", lb, logi.Log().Len())
	fmt.Printf("logical log is %.1fx more compact\n", float64(pb)/float64(lb))

	// Recovery replays the logical log into a fresh index through the
	// ordinary insert path: "the same insert and delete operations used for
	// normal execution are also used for recovery" (§4).
	fresh := newIdx(btree.Shadow)
	if err := wal.Recover(logi.Log(), fresh); err != nil {
		log.Fatal(err)
	}
	cnt, err := fresh.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logical recovery rebuilt the index: %d keys\n", cnt)

	// Physical logging copies index bytes, so a software-corrupted key among
	// them would be faithfully restored at recovery; logical logging copies
	// none.
	copied := func(m *wal.Manager) int {
		n := 0
		for _, r := range m.Log().Records() {
			if r.Type == wal.RecSplitMove {
				n++
			}
		}
		return n
	}
	fmt.Printf("index keys copied into the log: physical %d, logical %d\n", copied(phys), copied(logi))
	// Output:
	// workload: 20000 ascending inserts (maximum split rate)
	// discipline    log bytes    records
	// physical        1085584      42632
	// logical          520021      20001
	// logical log is 2.1x more compact
	// logical recovery rebuilt the index: 20000 keys
	// index keys copied into the log: physical 22578, logical 0
}
