package btree_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Create a crash-recoverable index, insert, look up, scan and delete.
func Example() {
	// An index lives on a page device; use an in-memory one here (see
	// storage.OpenFileDisk for a durable file). The Shadow variant is
	// Technique One of the paper: crash-consistent without any log.
	idx, err := btree.Open(storage.NewMemDisk(), btree.Shadow, btree.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Keys are arbitrary bytes; byte order is key order.
	for _, user := range []string{"alice", "bob", "carol", "dave", "erin"} {
		if err := idx.Insert([]byte(user), []byte("uid:"+user)); err != nil {
			log.Fatal(err)
		}
	}

	v, err := idx.Lookup([]byte("carol"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol -> %s\n", v)

	// Range scan over ["b","d"): bob, carol.
	fmt.Println("users in [b,d):")
	err = idx.Scan([]byte("b"), []byte("d"), func(k, v []byte) bool {
		fmt.Printf("  %s -> %s\n", k, v)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// Commit: force every modified page to stable storage (the paper's
	// §2 model — no write-ahead log anywhere).
	if err := idx.Sync(); err != nil {
		log.Fatal(err)
	}

	// Deletes are in-place and crash-careful too.
	if err := idx.Delete([]byte("dave")); err != nil {
		log.Fatal(err)
	}
	if _, err := idx.Lookup([]byte("dave")); err != nil {
		fmt.Println("dave deleted:", err)
	}

	n, err := idx.Count()
	if err != nil {
		log.Fatal(err)
	}
	h, err := idx.Height()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index holds %d keys in a %d-level tree\n", n, h)
	// Output:
	// carol -> uid:carol
	// users in [b,d):
	//   bob -> uid:bob
	//   carol -> uid:carol
	// dave deleted: btree: key not found: "dave"
	// index holds 4 keys in a 1-level tree
}

// Interrupt a commit's sync while splits are in flight, reopen the index,
// and watch the paper's detection-and-repair machinery restore it on first
// use, for both techniques.
func Example_crashRecovery() {
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	for _, variant := range []btree.Variant{btree.Shadow, btree.Reorg} {
		fmt.Printf("=== %v index ===\n", variant)
		disk := storage.NewMemDisk()
		idx, err := btree.Open(disk, variant, btree.Options{})
		if err != nil {
			log.Fatal(err)
		}

		// Commit a baseline: these keys must survive anything.
		const committed = 2000
		for i := 0; i < committed; i++ {
			if err := idx.Insert(key(i), []byte("committed")); err != nil {
				log.Fatal(err)
			}
		}
		if err := idx.Sync(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed %d keys\n", committed)

		// A transaction inserts more keys, splitting pages, and the
		// machine dies during its commit sync: only half the pages it
		// handed to the OS reach the disk (§2's failure model).
		for i := committed; i < committed+300; i++ {
			if err := idx.Insert(key(i), []byte("in-flight")); err != nil {
				log.Fatal(err)
			}
		}
		if err := idx.Pool().FlushDirty(); err != nil {
			log.Fatal(err)
		}
		pending := disk.PendingPages()
		err = disk.CrashPartial(func(p []storage.PageNo) []storage.PageNo {
			return p[:len(p)/2] // an arbitrary subset survives
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("CRASH during sync: %d of %d in-flight pages reached the disk\n",
			len(pending)/2, len(pending))

		// Restart. No log replay, no recovery pass: just open the file,
		// with a recorder attached to count the repairs.
		rec := obs.New(0)
		idx2, err := btree.Open(disk, variant, btree.Options{Obs: rec})
		if err != nil {
			log.Fatal(err)
		}

		// First use finds and repairs whatever the crash broke.
		for i := 0; i < committed; i++ {
			if _, err := idx2.Lookup(key(i)); err != nil {
				log.Fatalf("committed key %d lost: %v", i, err)
			}
		}
		fmt.Printf("all %d committed keys present\n", committed)
		fmt.Printf("repairs made on first use: inter-page=%d intra-page=%d root=%d peer=%d\n",
			rec.Sum(obs.InterPageRepairs),
			rec.Get(obs.RepairIntraPage),
			rec.Get(obs.RepairRoot),
			rec.Get(obs.RepairPeer))

		// Complete the remaining lazy repairs and prove the structure sound.
		if err := idx2.RecoverAll(); err != nil {
			log.Fatal(err)
		}
		if err := idx2.Check(btree.CheckStrict); err != nil {
			log.Fatalf("structure check: %v", err)
		}
		fmt.Println("strict structure check: OK")

		// And the index is fully writable again.
		for i := 10_000; i < 10_100; i++ {
			if err := idx2.Insert(key(i), []byte("post-crash")); err != nil {
				log.Fatal(err)
			}
		}
		if err := idx2.Sync(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("post-crash inserts and sync: OK")
	}
	// Output:
	// === shadow index ===
	// committed 2000 keys
	// CRASH during sync: 2 of 5 in-flight pages reached the disk
	// all 2000 committed keys present
	// repairs made on first use: inter-page=2 intra-page=0 root=0 peer=0
	// strict structure check: OK
	// post-crash inserts and sync: OK
	// === reorg index ===
	// committed 2000 keys
	// CRASH during sync: 2 of 4 in-flight pages reached the disk
	// all 2000 committed keys present
	// repairs made on first use: inter-page=1 intra-page=0 root=0 peer=0
	// strict structure check: OK
	// post-crash inserts and sync: OK
}
