package main

// Example runs the program and pins what it prints: the measured Table 4 and Figure 2.
func Example() {
	main()
	// Output:
	// measuring Table 4 over all eight levels (live engines)...
	//
	// Table 4. Isolation Types Characterized by Possible Anomalies Allowed (measured)
	// Isolation level     P0 Dirty Write  P1 Dirty Read  P4C Cursor Lost Update  P4 Lost Update      P2 Fuzzy Read       P3 Phantom          A5A Read Skew  A5B Write Skew
	// ------------------  --------------  -------------  ----------------------  ------------------  ------------------  ------------------  -------------  ------------------
	// READ UNCOMMITTED    Not Possible    Possible       Possible                Possible            Possible            Possible            Possible       Possible
	// READ COMMITTED      Not Possible    Not Possible   Possible                Possible            Possible            Possible            Possible       Possible
	// CURSOR STABILITY    Not Possible    Not Possible   Not Possible            Sometimes Possible  Sometimes Possible  Possible            Possible       Sometimes Possible
	// REPEATABLE READ     Not Possible    Not Possible   Not Possible            Not Possible        Not Possible        Possible            Not Possible   Not Possible
	// SNAPSHOT ISOLATION  Not Possible    Not Possible   Not Possible            Not Possible        Not Possible        Sometimes Possible  Not Possible   Possible
	// SERIALIZABLE        Not Possible    Not Possible   Not Possible            Not Possible        Not Possible        Not Possible        Not Possible   Not Possible
	// DEGREE 0            Possible        Possible       Possible                Possible            Possible            Possible            Possible       Possible
	// READ CONSISTENCY    Not Possible    Not Possible   Not Possible            Sometimes Possible  Sometimes Possible  Possible            Possible       Possible
	// All cells for the paper's six rows match the published Table 4.
	//
	// Figure 2 (measured): isolation hierarchy, weaker « stronger
	//   DEGREE 0 « READ UNCOMMITTED [P0]
	//   READ UNCOMMITTED « READ COMMITTED [P1]
	//   READ COMMITTED « READ CONSISTENCY [P4C, P4, P2]
	//   CURSOR STABILITY « REPEATABLE READ [P4, P2, A5A, A5B]
	//   REPEATABLE READ « SERIALIZABLE [P3]
	//   SNAPSHOT ISOLATION « SERIALIZABLE [P3, A5B]
	//   READ CONSISTENCY « CURSOR STABILITY [A5B]
	//   READ CONSISTENCY « SNAPSHOT ISOLATION [P4, P2, P3, A5A]
	// incomparable (»«):
	//   CURSOR STABILITY »« SNAPSHOT ISOLATION
	//   REPEATABLE READ »« SNAPSHOT ISOLATION
	// All strength claims from Remarks 1, 7, 8, 9 and §4.3 reproduced.
}
