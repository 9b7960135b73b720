// Hierarchy regenerates the paper's Figure 2 from live engine runs: it
// measures Table 4 over all eight isolation levels (the paper's six rows
// plus Degree 0 and Oracle Read Consistency), computes the strength partial
// order, and prints the Hasse edges annotated with the phenomena that
// differentiate each pair — then verifies every strength claim from
// Remarks 1, 7, 8, 9 and §4.3.
package main

import (
	"fmt"
	"log"
	"strings"

	isolevel "isolevel"
)

func main() {
	fmt.Println("measuring Table 4 over all eight levels (live engines)...")
	res, err := isolevel.Table4AllLevels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	// The table pads its last column too; print each line without the pad.
	for _, line := range strings.Split(strings.TrimSuffix(res.Report().String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Println()
	h := isolevel.Figure2(res)
	fmt.Print(h)
}
