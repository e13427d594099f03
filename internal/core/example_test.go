package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/heap"
)

// The POSTGRES storage system keeps every committed tuple version, so the
// database can answer queries as of any past transaction: the capability the
// no-overwrite design trades its log for. This runs a tiny account ledger
// through updates and reads it back at three points in its history, all
// through the crash-recoverable index.
func Example_historical() {
	db, err := core.Open(core.Memory(), core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := db.CreateRelation("accounts")
	if err != nil {
		log.Fatal(err)
	}
	byName, err := db.CreateIndex("accounts_name", core.Shadow)
	if err != nil {
		log.Fatal(err)
	}

	// Era 1: open the account with 100 credits.
	tx1 := db.Begin()
	tid1, err := accounts.Insert(tx1, []byte("alice=100"))
	if err != nil {
		log.Fatal(err)
	}
	if err := byName.InsertTID(tx1, []byte("alice"), tid1); err != nil {
		log.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		log.Fatal(err)
	}
	era1 := db.Manager().HighestCommitted()

	// Era 2: balance becomes 250. The update writes a NEW version; the old
	// one stays, invalidated but preserved.
	tx2 := db.Begin()
	tid2, err := accounts.Update(tx2, tid1, []byte("alice=250"))
	if err != nil {
		log.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		log.Fatal(err)
	}
	era2 := db.Manager().HighestCommitted()

	// Era 3: the account closes.
	tx3 := db.Begin()
	if err := accounts.Delete(tx3, tid2); err != nil {
		log.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		log.Fatal(err)
	}

	// Current state: the index key resolves, but no version is visible;
	// readers "detect and ignore records pointed to by invalid keys".
	if _, err := byName.FetchVisible(accounts, []byte("alice")); err != nil {
		fmt.Println("now: account closed:", err)
	}

	// Time travel: read each version as of its era.
	v1, err := accounts.FetchAsOf(tid1, era1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as of era 1 (xid %d): %s\n", era1, v1)
	v2, err := accounts.FetchAsOf(tid2, era2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as of era 2 (xid %d): %s\n", era2, v2)
	if _, err := accounts.FetchAsOf(tid1, era2); err != nil {
		fmt.Println("as of era 2, version 1 is superseded:", err)
	}

	// An aborted transaction's writes never become visible, in any era. No
	// undo happened; the status table just lacks its XID.
	tx4 := db.Begin()
	tid4, err := accounts.Insert(tx4, []byte("mallory=999999"))
	if err != nil {
		log.Fatal(err)
	}
	if err := tx4.Abort(); err != nil {
		log.Fatal(err)
	}
	if _, err := accounts.Fetch(tid4); err != nil {
		fmt.Println("aborted insert invisible:", err)
	}
	if _, err := accounts.FetchAsOf(tid4, heap.XID(1<<62)); err != nil {
		fmt.Println("even to far-future historical reads:", err)
	}
	// Output:
	// now: account closed: btree: key not found: "alice" (index key points at an invalid tuple)
	// as of era 1 (xid 2): alice=100
	// as of era 2 (xid 3): alice=250
	// as of era 2, version 1 is superseded: heap: no such tuple: (1,0) already deleted as of 3
	// aborted insert invisible: heap: no such tuple: (1,2) created by uncommitted txn 5
	// even to far-future historical reads: heap: no such tuple: (1,2) not yet created as of 4611686018427387904
}
