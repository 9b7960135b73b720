package main

// Example runs the program and pins what it prints: one transaction per engine.
func Example() {
	main()
	// Output:
	// == Locking engine (Table 2): SERIALIZABLE ==
	// transferred 40 from x to y: x=10 y=90 (total preserved)
	//
	// == Snapshot Isolation (§4.2): first-committer-wins ==
	// T1 commit: ok
	// T2 commit: first-committer-wins abort — engine: first-committer-wins write-write conflict: x committed at ts 2 inside execution interval (start 1)
	// x=101 (no lost update)
	//
	// == Read Consistency (§4.3): statement-level snapshots ==
	// T1's statements saw x=1 then x=2 — each statement gets a fresh snapshot
}
