package isolevel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// papermapAnchor matches a PAPERMAP.md link of the form
// [`path.go:N`](…) `Symbol`: a line anchor that names what it points at.
var papermapAnchor = regexp.MustCompile("\\[`([^`]+\\.go):(\\d+)`\\]\\([^)]*\\)\\s+`([A-Za-z_][A-Za-z0-9_.]*)`")

// Every PAPERMAP.md line anchor that names a symbol must land on that
// symbol: line N of path.go is the line Symbol is declared on, or the
// opening line of the doc comment directly above the declaration. An
// anchor that drifted onto a neighbouring declaration fails here instead
// of sending a reader to the wrong code.
func TestPapermapAnchorsPointAtTheirSymbols(t *testing.T) {
	src, err := os.ReadFile("PAPERMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	links := papermapAnchor.FindAllStringSubmatch(string(src), -1)
	if len(links) == 0 {
		t.Fatal("no [`path.go:N`](…) `Symbol` link found in PAPERMAP.md: the link form or this test's pattern changed")
	}
	decls := map[string]map[string][]int{} // path -> symbol -> acceptable lines
	for _, l := range links {
		path, symbol := l[1], l[3]
		line, _ := strconv.Atoi(l[2])
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

// declLines parses one Go file and returns, for every top-level function,
// method, type, variable and constant, the lines an anchor to it may use:
// the declaration line and the first line of its doc comment. Methods are
// listed both bare ("Horizon") and receiver-qualified ("Oracle.Horizon").
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
