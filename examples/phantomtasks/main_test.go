package main

// Example runs the program and pins what it prints: the task-planning phantom at SNAPSHOT ISOLATION and SERIALIZABLE.
func Example() {
	main()
	// Output:
	// == planning tasks at SNAPSHOT ISOLATION (limit 8h) ==
	// T1 committed: true, T2 committed: true
	// committed schedule: 4 tasks, 9 hours
	// PHANTOM (P3): both inserts slipped past the predicate — SI has no predicate locks
	//
	// == planning tasks at SERIALIZABLE (limit 8h) ==
	// T1 committed: true, T2 committed: false
	// committed schedule: 3 tasks, 8 hours
	// limit enforced
}
