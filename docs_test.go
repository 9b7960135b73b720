package isolevel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The files a reader copies commands out of.
var (
	commandDocs = []string{"README.md", ".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml"}
	makeDocs    = []string{"README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
)

var (
	// isolevelInvocation matches `go run ./cmd/isolevel WORD`, `$(GO) run
	// -race ./cmd/isolevel WORD`, `/tmp/isolevel… WORD` and a backticked
	// `isolevel WORD`. The optional "-o " group marks a build output path
	// (`go build -o /tmp/isolevel ./cmd/isolevel`), which is not a call.
	isolevelInvocation = regexp.MustCompile("(-o )?(?:run (?:-race )?\\./cmd/isolevel|/tmp/isolevel[\\w-]*|`isolevel) +([^\\s`\"'|;)]+)")
	makeInvocation     = regexp.MustCompile(`\bmake +([a-z][\w-]*)`)
	makeRule           = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*(?: +[A-Za-z][\w-]*)*) *:([^=]|$)`)
	makePhony          = regexp.MustCompile(`(?m)^\.PHONY:(.*)$`)
)

// The docs, the Makefile and CI may only tell a reader to run commands that
// exist: every isolevel subcommand they invoke is a case of main's dispatch
// switch, every `make` target they name is defined, and .PHONY lists
// exactly the targets the Makefile defines.
func TestDocsNameOnlyRealCommandsAndTargets(t *testing.T) {
	commands, err := dispatchCases("cmd/isolevel/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range commandDocs {
		for _, m := range isolevelInvocation.FindAllStringSubmatch(readDoc(t, path), -1) {
			if m[1] == "" && !slices.Contains(commands, m[2]) {
				t.Errorf("%s: %q invokes isolevel %s, which is not a command (have %v)", path, m[0], m[2], commands)
			}
		}
	}

	makefile := readDoc(t, "Makefile")
	var targets []string
	for _, m := range makeRule.FindAllStringSubmatch(makefile, -1) {
		targets = append(targets, strings.Fields(m[1])...)
	}
	for _, path := range makeDocs {
		for _, m := range makeInvocation.FindAllStringSubmatch(readDoc(t, path), -1) {
			if !slices.Contains(targets, m[1]) {
				t.Errorf("%s: %q names no Makefile target (have %v)", path, m[0], targets)
			}
		}
	}
	phony := makePhony.FindStringSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	declared := strings.Fields(phony[1])
	slices.Sort(declared)
	slices.Sort(targets)
	if !slices.Equal(declared, targets) {
		t.Errorf(".PHONY lists %v, the Makefile defines %v", declared, targets)
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// dispatchCases returns the string cases of the switch in path's main
// function: the subcommands the binary accepts.
func dispatchCases(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	var cases []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "main" || fn.Recv != nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					cases = append(cases, s)
				}
			}
			return true
		})
	}
	return cases, nil
}
