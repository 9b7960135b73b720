package main

// Example runs the program and pins what it prints: H4 at each level, with plain reads and through a cursor.
func Example() {
	main()
	// Output:
	// H4: r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1 — is T2's +20 lost?
	//
	// == READ COMMITTED, plain reads ==
	// T1 committed: true, T2 committed: true, final x=130
	// LOST UPDATE (P4): T2's +20 vanished under T1's stale read-modify-write
	//
	// == CURSOR STABILITY, plain reads ==
	// T1 committed: true, T2 committed: true, final x=130
	// LOST UPDATE (P4): T2's +20 vanished under T1's stale read-modify-write
	//
	// == REPEATABLE READ, plain reads ==
	// T1 committed: false, T2 committed: true, final x=120
	//   w1[x+=30]: engine: deadlock victim (T1)
	// prevented: one transaction blocked or aborted; no update lost
	//
	// == SNAPSHOT ISOLATION, plain reads ==
	// T1 committed: false, T2 committed: true, final x=120
	//   c1: engine: first-committer-wins write-write conflict: x committed at ts 2 inside execution interval (start 1)
	// prevented: one transaction blocked or aborted; no update lost
	//
	// == CURSOR STABILITY, reads through a cursor (the paper's rc/wc) ==
	// T1 committed: true, T2 committed: true, final x=120
	// LOST UPDATE (P4): T1's +30 vanished — the cursor protected T1's own
	// update, but T2 still read-modify-wrote from a stale value (the paper's
	// 'Sometimes Possible': only cursor-based clients are protected)
}
