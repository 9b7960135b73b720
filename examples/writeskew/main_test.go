package main

// Example runs the program and pins what it prints: write skew at SNAPSHOT ISOLATION and SERIALIZABLE.
func Example() {
	main()
	// Output:
	// constraint: x + y > 0; each withdrawal checks it before writing
	//
	// == SNAPSHOT ISOLATION ==
	// T1 committed: true, T2 committed: true
	// final: x=-40 y=-40, x+y=-80
	// WRITE SKEW: both withdrawals honored a stale constraint check (A5B)
	//
	// == SERIALIZABLE ==
	// T1 committed: true, T2 committed: false
	// w2[x]: deadlock victim (locking turned the skew into a cycle)
	// final: x=50 y=-40, x+y=10
	// constraint preserved
}
