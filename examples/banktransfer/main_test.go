package main

// Example runs the program and pins what it prints: an audit during a transfer, at three levels.
func Example() {
	main()
	// Output:
	// == auditing during a transfer at READ UNCOMMITTED ==
	// auditor saw x=10 y=50, total=60
	// INCONSISTENT ANALYSIS: the paper's H1 anomaly, live
	// final state: x=10 y=90
	//
	// == auditing during a transfer at READ COMMITTED ==
	// auditor saw x=10 y=90, total=100 (auditor blocked mid-audit)
	// consistent: the engine prevented the inconsistent analysis
	// final state: x=10 y=90
	//
	// == auditing during a transfer at SNAPSHOT ISOLATION ==
	// auditor saw x=50 y=50, total=100
	// consistent: the engine prevented the inconsistent analysis
	// final state: x=10 y=90
}
