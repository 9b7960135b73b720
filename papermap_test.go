package isolevel_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// papermapAnchor matches a PAPERMAP.md line anchor [`path.go:N`](…) and
// the `Symbol` that must follow it to name what it points at.
var papermapAnchor = regexp.MustCompile("\\[`([^`]+\\.go):(\\d+)`\\]\\([^)]*\\)(?:\\s+`([A-Za-z_][A-Za-z0-9_.]*)`)?")

// papermapFileLink matches an unanchored file link that names a symbol:
// [`path.go`](…) `Symbol`.
var papermapFileLink = regexp.MustCompile("\\[`([^`:]+\\.go)`\\]\\([^)]*\\)\\s+`([A-Za-z_][A-Za-z0-9_.]*)`")

// papermapQualified matches a backticked package-qualified name such as
// `mv.Oracle.WaitSafe` or `engine.IsRetryable`: a lower-case package, then
// an exported symbol, optionally a method or field after it.
var papermapQualified = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?)`")

// Every PAPERMAP.md line anchor must name a symbol and land on it: line N
// of path.go is the line Symbol is declared on, or the opening line of the
// doc comment directly above the declaration. An anchor that drifted onto
// a neighbouring declaration fails here instead of sending a reader to the
// wrong code, and an anchor without a symbol fails because nothing could
// tell that it drifted.
func TestPapermapAnchorsPointAtTheirSymbols(t *testing.T) {
	src, err := os.ReadFile("PAPERMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	links := papermapAnchor.FindAllStringSubmatch(string(src), -1)
	if len(links) == 0 {
		t.Fatal("no [`path.go:N`](…) link found in PAPERMAP.md: the link form or this test's pattern changed")
	}
	decls := map[string]map[string][]int{} // path -> symbol -> acceptable lines
	for _, l := range links {
		path, symbol := l[1], l[3]
		line, _ := strconv.Atoi(l[2])
		if symbol == "" {
			t.Errorf("%s:%d names no symbol: follow the link with `Symbol`", path, line)
			continue
		}
		if decls[path] == nil {
			d, err := declLines(path)
			if err != nil {
				t.Errorf("%s:%d `%s`: %v", path, line, symbol, err)
				continue
			}
			decls[path] = d
		}
		if !slices.Contains(decls[path][symbol], line) {
			t.Errorf("%s:%d does not declare `%s` (declared or documented from line %v)", path, line, symbol, decls[path][symbol])
		}
	}
}

// PAPERMAP.md names code without a line anchor in two more forms, and both
// must still name something that exists: a file link followed by a symbol
// must be a declaration in that file, and a backticked `pkg.Symbol` must be
// declared (in a test file, for test names) in the package under internal/
// whose directory is pkg. Deleting or renaming an exported name then fails
// here instead of leaving the paper map pointing at nothing.
func TestPapermapNamesResolve(t *testing.T) {
	src, err := os.ReadFile("PAPERMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	links := papermapFileLink.FindAllStringSubmatch(string(src), -1)
	qualified := papermapQualified.FindAllStringSubmatch(string(src), -1)
	if len(links) == 0 || len(qualified) == 0 {
		t.Fatalf("found %d [`path.go`](…) `Symbol` links and %d `pkg.Symbol` names in PAPERMAP.md: a form or this test's patterns changed", len(links), len(qualified))
	}
	for _, l := range links {
		path, symbol := l[1], l[2]
		decls, err := declLines(path)
		if err != nil {
			t.Errorf("[`%s`] `%s`: %v", path, symbol, err)
			continue
		}
		if _, ok := decls[symbol]; !ok {
			t.Errorf("[`%s`] `%s`: %s declares no %s", path, symbol, path, symbol)
		}
	}
	pkgs := map[string]map[string][]int{}
	for _, q := range qualified {
		pkg, symbol := q[1], q[2]
		if pkgs[pkg] == nil {
			d, err := pkgDecls(filepath.Join("internal", pkg))
			if err != nil {
				t.Errorf("`%s.%s`: %v", pkg, symbol, err)
				continue
			}
			pkgs[pkg] = d
		}
		if _, ok := pkgs[pkg][symbol]; !ok {
			t.Errorf("`%s.%s`: internal/%s declares no %s", pkg, symbol, pkg, symbol)
		}
	}
}

// pkgDecls merges declLines over every Go file in dir, test files
// included.
func pkgDecls(dir string) (map[string][]int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	out := map[string][]int{}
	for _, f := range files {
		d, err := declLines(f)
		if err != nil {
			return nil, err
		}
		for name, lines := range d {
			out[name] = append(out[name], lines...)
		}
	}
	return out, nil
}

// declLines parses one Go file and returns, for every top-level function,
// method, type, variable and constant, the lines an anchor to it may use:
// the declaration line and the first line of its doc comment. Methods are
// listed both bare ("Horizon") and receiver-qualified ("Oracle.Horizon");
// struct fields are listed type-qualified ("Finding.Timeline").
func declLines(path string) (map[string][]int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	out := map[string][]int{}
	add := func(name string, pos token.Pos, doc *ast.CommentGroup) {
		out[name] = append(out[name], fset.Position(pos).Line)
		if doc != nil {
			out[name] = append(out[name], fset.Position(doc.Pos()).Line)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name.Name, d.Pos(), d.Doc)
			if d.Recv != nil && len(d.Recv.List) == 1 {
				add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Pos(), d.Doc)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				doc := d.Doc
				pos := d.Pos()
				if d.Lparen.IsValid() { // grouped: each spec carries its own doc
					doc, pos = nil, s.Pos()
				}
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					add(s.Name.Name, pos, doc)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								add(s.Name.Name+"."+n.Name, n.Pos(), fld.Doc)
							}
						}
					}
				case *ast.ValueSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					for _, n := range s.Names {
						add(n.Name, pos, doc)
					}
				}
			}
		}
	}
	return out, nil
}

// recvName renders a receiver type expression ("*Oracle", "Oracle") as
// its bare type name.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
