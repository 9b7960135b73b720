package server

import (
	"strings"
	"testing"
)

// fieldsDataStmt is the statement rule written with strings.Fields, the
// reference isDataStmt must agree with.
func fieldsDataStmt(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return false
	}
	switch strings.ToUpper(f[0]) {
	case "GET", "DEL", "SCAN":
		return true
	case "SET":
		return len(f) < 2 || !strings.EqualFold(f[1], "TRANSACTION")
	}
	return false
}

// isDataStmt classifies every statement as the Fields-based rule does —
// leading and embedded tabs, any case, bare SET, SET TRANSACTION and the
// control verbs — without allocating.
func TestIsDataStmtMatchesFields(t *testing.T) {
	cases := []struct {
		line string
		want bool
	}{
		{"", false},
		{" \t ", false},
		{"GET a", true},
		{"get a", true},
		{"\tGeT\ta", true},
		{"  DEL a", true},
		{"del\ta", true},
		{"SCAN a b", true},
		{"scan\t a \tb", true},
		{"SET a 1", true},
		{"set\ta\t1", true},
		{"SET", true},
		{"  set  ", true},
		{"SET TRANSACTION ISOLATION LEVEL SERIALIZABLE", false},
		{"set\ttransaction isolation level read committed", false},
		{"\t SET \t Transaction", false},
		{"SET TRANSACTIONS a 1", true},
		{"SETX a 1", false},
		{"GETA", false},
		{"BEGIN", false},
		{"COMMIT", false},
		{"ROLLBACK", false},
		{"PING", false},
		{"QUIT", false},
		{"ſet a 1", true},
		{"SET TRANSACTION", false},
		{"SET　a 1", true},
	}
	for _, c := range cases {
		if ref := fieldsDataStmt(c.line); ref != c.want {
			t.Fatalf("reference rule on %q = %v; the case table is wrong", c.line, ref)
		}
		if got := isDataStmt(c.line); got != c.want {
			t.Errorf("isDataStmt(%q) = %v, want %v", c.line, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { isDataStmt("\tset\ttransaction isolation level serializable") }); n != 0 {
		t.Errorf("isDataStmt allocates %.0f objects per statement, want 0", n)
	}
}
