// Phantomrange demonstrates key-range (next-key) locking — the practical
// predicate lock — against the paper's P3 phantom.
//
// A scanner SELECTs `active == 1` twice while a writer inserts a fresh
// matching row between the two scans:
//
//   - At READ COMMITTED the Table 2 protocol takes only short
//     predicate-read locks, so the range protection evaporates as soon as
//     the first scan returns: the insert proceeds and the second scan
//     sees the phantom.
//   - At SERIALIZABLE the scan's key-range lock is long: next-key
//     fragments cover every existing employee key and the gaps between
//     them, so the insert's covering-gap acquisition blocks until the
//     scanner commits. No phantom — and the lock manager's cross-stripe
//     gate is never taken (GateAcquires stays 0), which is the entire
//     point of trading the predicate table for key-range locks.
package main

import (
	"fmt"
	"log"
	"time"

	isolevel "isolevel"
)

func main() {
	for _, level := range []isolevel.Level{isolevel.ReadCommitted, isolevel.Serializable} {
		fmt.Printf("== scanning employees at %s under key-range locking ==\n", level)
		run(level)
		fmt.Println()
	}
}

func run(level isolevel.Level) {
	db := isolevel.NewKeyrangeDBShards(8)
	db.Load(
		isolevel.Tuple{Key: "emp:1", Row: isolevel.NewRow(map[string]int64{"active": 1})},
		isolevel.Tuple{Key: "emp:2", Row: isolevel.NewRow(map[string]int64{"active": 0})},
		isolevel.Tuple{Key: "emp:4", Row: isolevel.NewRow(map[string]int64{"active": 1})},
	)
	pred := isolevel.MustPredicate("active == 1")

	scanner, err := db.Begin(level)
	if err != nil {
		log.Fatal(err)
	}
	first, err := scanner.Select(pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanner: first SELECT sees %d active employees\n", len(first))

	inserted := make(chan error, 1)
	go func() {
		writer, err := db.Begin(level)
		if err != nil {
			inserted <- err
			return
		}
		// emp:3 falls into the gap between emp:2 and emp:4 — a phantom
		// for the scanner's predicate.
		if err := writer.Put("emp:3", isolevel.NewRow(map[string]int64{"active": 1})); err != nil {
			inserted <- err
			return
		}
		inserted <- writer.Commit()
	}()

	select {
	case err := <-inserted:
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("writer:  insert of emp:3 committed immediately (no long range lock)")
		second, err := scanner.Select(pred)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scanner: second SELECT sees %d — a P3 phantom appeared mid-transaction\n", len(second))
		if err := scanner.Commit(); err != nil {
			log.Fatal(err)
		}
	case <-time.After(100 * time.Millisecond):
		fmt.Println("writer:  insert of emp:3 BLOCKED on the covering gap lock")
		second, err := scanner.Select(pred)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scanner: second SELECT still sees %d — no phantom\n", len(second))
		if err := scanner.Commit(); err != nil {
			log.Fatal(err)
		}
		if err := <-inserted; err != nil {
			log.Fatal(err)
		}
		fmt.Println("writer:  insert committed after the scanner released its range")
	}

	st := db.LockStats()
	fmt.Printf("lock manager: range-grants=%d gap-grants=%d gap-waits=%d gate-acquires=%d\n",
		st.RangeGrants, st.GapGrants, st.GapWaits, st.GateAcquires)
}
