package main

// Example runs the program and pins what it prints: the phantom at READ COMMITTED and the blocked insert at SERIALIZABLE.
func Example() {
	main()
	// Output:
	// == scanning employees at READ COMMITTED under key-range locking ==
	// scanner: first SELECT sees 2 active employees
	// writer:  insert of emp:3 committed immediately (no long range lock)
	// scanner: second SELECT sees 3 — a P3 phantom appeared mid-transaction
	// lock manager: range-grants=2 gap-grants=0 gap-waits=0 gate-acquires=0
	//
	// == scanning employees at SERIALIZABLE under key-range locking ==
	// scanner: first SELECT sees 2 active employees
	// writer:  insert of emp:3 BLOCKED on the covering gap lock
	// scanner: second SELECT still sees 2 — no phantom
	// writer:  insert committed after the scanner released its range
	// lock manager: range-grants=2 gap-grants=1 gap-waits=1 gate-acquires=0
}
