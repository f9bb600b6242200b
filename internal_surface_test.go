package qolsr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalSurface is a ratchet on the exported surface of internal/:
// each package's count of exported identifiers in its non-test files —
// top-level types, functions, variables and constants, and the exported
// methods of exported types — may not exceed its pin. An export that loses
// its last non-test caller goes (or moves into a test file) and lowers the
// pin; a new one edits it in review, alongside its caller.
func TestInternalSurface(t *testing.T) {
	pins := map[string]int{
		"core":     24,
		"des":      11,
		"eval":     52,
		"geom":     28,
		"graph":    79,
		"metric":   21,
		"mpr":      8,
		"netgen":   3,
		"node":     46,
		"obs":      45,
		"olsr":     57,
		"paperex":  7,
		"par":      1,
		"rng":      8,
		"route":    15,
		"scenario": 52,
		"sim":      59,
		"stats":    17,
		"traffic":  43,
	}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			n += exportedNames(f)
		}
		if n == 0 {
			continue
		}
		total += n
		pkg := filepath.Base(dir)
		pin, ok := pins[pkg]
		switch {
		case !ok:
			t.Errorf("internal/%s exports %d identifiers and has no pin", pkg, n)
		case n > pin:
			t.Errorf("internal/%s exports %d identifiers, pinned at %d", pkg, n, pin)
		}
		t.Logf("internal/%s: %d", pkg, n)
	}
	t.Logf("%d exported identifiers across internal/", total)
}

// exportedNames counts a file's exported top-level names and the exported
// methods of its exported types.
func exportedNames(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(receiverType(d.Recv.List[0].Type))) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverType names a method receiver's base type: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
