// Timetravel demonstrates §4.2's observation that Snapshot Isolation "gives
// the freedom to run transactions with very old timestamps, thereby
// allowing them to do time travel ... while never blocking or being blocked
// by writes" — and that such a transaction aborts if it tries to *update*
// anything modified since its snapshot.
//
// It also shows what that freedom costs and who pays: the engine remembers
// history only as far back as somebody is reading it ("First-committer-wins
// requires the system to remember all updates belonging to any transaction
// that commits after the Start-Timestamp of each active transaction"). A
// bookmark — a snapshot held open at "yesterday" — is that somebody; while
// it is open every timestamp at or after it can be travelled to, and once
// it is closed yesterday is gone.
package main

import (
	"errors"
	"fmt"
	"log"

	isolevel "isolevel"
)

func main() {
	db := isolevel.NewMVDB()
	db.Load(isolevel.Scalar("price", 100))

	// Bookmark "yesterday": a snapshot held open there, then let history
	// move on.
	yesterday := db.CurrentTS()
	bookmark, err := db.BeginAsOf(yesterday)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range []int64{110, 125, 95} {
		tx, _ := db.Begin(isolevel.SnapshotIsolation)
		if err := isolevel.PutVal(tx, "price", p); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("update %d: price -> %d\n", i+1, p)
	}

	// A reader pinned at the old snapshot sees the old price, without
	// blocking anyone.
	old, err := db.BeginAsOf(yesterday)
	if err != nil {
		log.Fatal(err)
	}
	v, err := isolevel.GetVal(old, "price")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntime-travel read at ts=%d: price=%d (today it is %d)\n",
		yesterday, v, db.ReadCommittedRow("price").Val())
	if err := old.Commit(); err != nil {
		log.Fatal(err)
	}

	// Anything between the bookmark and now is reachable too.
	mid, err := db.BeginAsOf(yesterday + 2)
	if err != nil {
		log.Fatal(err)
	}
	v, _ = isolevel.GetVal(mid, "price")
	fmt.Printf("time-travel read at ts=%d: price=%d\n", yesterday+2, v)
	_ = mid.Commit()

	// An update from the old snapshot must abort: first-committer-wins.
	stale, err := db.BeginAsOf(yesterday)
	if err != nil {
		log.Fatal(err)
	}
	if err := isolevel.PutVal(stale, "price", 101); err != nil {
		log.Fatal(err)
	}
	err = stale.Commit()
	if !errors.Is(err, isolevel.ErrWriteConflict) {
		log.Fatalf("expected first-committer-wins abort, got %v", err)
	}
	fmt.Printf("stale update correctly aborted: %v\n", err)

	// Close the bookmark: with nobody reading yesterday, the engine is free
	// to forget it, and says so.
	if err := bookmark.Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := db.BeginAsOf(yesterday); errors.Is(err, isolevel.ErrSnapshotTooOld) {
		fmt.Printf("bookmark closed: %v\n", err)
	} else {
		log.Fatalf("expected ErrSnapshotTooOld after the bookmark closed, got %v", err)
	}
}
