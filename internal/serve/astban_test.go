package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Design-regression tests in the style of durable's time.Now ban: parse
// every non-test file in this package and reject source patterns that
// would silently undo an invariant the package depends on.

// parseServeFiles yields every non-test .go file in this package.
func parseServeFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(".", name), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files[name] = file
	}
	return fset, files
}

// TestNoDirectTimeCalls bans the runtime's timing primitives in this
// package: every timestamp, elapsed measurement, timer and sleep must
// flow through the injected obs.Clock, or the deterministic simulation
// harness (internal/dst) silently loses control of that code path. A new
// call site is a design regression, caught here.
func TestNoDirectTimeCalls(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true,
		"AfterFunc": true, "After": true, "Tick": true,
		"NewTimer": true, "NewTicker": true, "Sleep": true,
	}
	fset, files := parseServeFiles(t)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg.Name == "time" && banned[sel.Sel.Name] {
				t.Errorf("%s: direct time.%s call — route it through the injected obs.Clock (Config.Clock)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
