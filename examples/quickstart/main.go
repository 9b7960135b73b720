// Quickstart: open each engine, run a transaction, and watch the defining
// behavior of the three concurrency-control families from the paper —
// blocking (locking), first-committer-wins (Snapshot Isolation), and
// statement snapshots (Read Consistency).
package main

import (
	"errors"
	"fmt"
	"log"

	isolevel "isolevel"
)

func main() {
	fmt.Println("== Locking engine (Table 2): SERIALIZABLE ==")
	lockingDemo()
	fmt.Println("\n== Snapshot Isolation (§4.2): first-committer-wins ==")
	snapshotDemo()
	fmt.Println("\n== Read Consistency (§4.3): statement-level snapshots ==")
	readConsistencyDemo()
}

func lockingDemo() {
	db := isolevel.NewLockingDB()
	db.Load(isolevel.Scalar("x", 50), isolevel.Scalar("y", 50))

	tx, err := db.Begin(isolevel.Serializable)
	if err != nil {
		log.Fatal(err)
	}
	x, _ := isolevel.GetVal(tx, "x")
	if err := isolevel.PutVal(tx, "x", x-40); err != nil {
		log.Fatal(err)
	}
	if err := isolevel.PutVal(tx, "y", 50+40); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transferred 40 from x to y: x=%d y=%d (total preserved)\n",
		db.ReadCommittedRow("x").Val(), db.ReadCommittedRow("y").Val())
}

func snapshotDemo() {
	db := isolevel.NewMVDB()
	db.Load(isolevel.Scalar("x", 100))

	t1, _ := db.Begin(isolevel.SnapshotIsolation)
	t2, _ := db.Begin(isolevel.SnapshotIsolation)

	v1, _ := isolevel.GetVal(t1, "x")
	v2, _ := isolevel.GetVal(t2, "x")
	_ = isolevel.PutVal(t1, "x", v1+1)
	_ = isolevel.PutVal(t2, "x", v2+1)

	if err := t1.Commit(); err != nil {
		log.Fatal(err)
	}
	err := t2.Commit()
	fmt.Println("T1 commit: ok")
	if errors.Is(err, isolevel.ErrWriteConflict) {
		fmt.Println("T2 commit: first-committer-wins abort —", err)
	} else {
		log.Fatalf("expected write conflict, got %v", err)
	}
	fmt.Printf("x=%d (no lost update)\n", db.ReadCommittedRow("x").Val())
}

func readConsistencyDemo() {
	db := isolevel.NewMVDB()
	db.Load(isolevel.Scalar("x", 1))

	t1, _ := db.Begin(isolevel.ReadConsistency)
	before, _ := isolevel.GetVal(t1, "x")

	// Another transaction commits between T1's two statements.
	t2, _ := db.Begin(isolevel.ReadConsistency)
	_ = isolevel.PutVal(t2, "x", 2)
	if err := t2.Commit(); err != nil {
		log.Fatal(err)
	}

	after, _ := isolevel.GetVal(t1, "x")
	fmt.Printf("T1's statements saw x=%d then x=%d — each statement gets a fresh snapshot\n", before, after)
	_ = t1.Commit()
}
