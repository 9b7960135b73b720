package main

// Example runs the program and pins what it prints: reads as of past timestamps and the end of a bookmark.
func Example() {
	main()
	// Output:
	// update 1: price -> 110
	// update 2: price -> 125
	// update 3: price -> 95
	//
	// time-travel read at ts=1: price=100 (today it is 95)
	// time-travel read at ts=3: price=125
	// stale update correctly aborted: engine: first-committer-wins write-write conflict: price committed at ts 4 inside execution interval (start 1)
	// bookmark closed: engine: snapshot too old: as of ts 1, history kept from ts 4
}
