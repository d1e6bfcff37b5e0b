package durable

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDefaultClockIsWallClock: a manager opened without Options.Now reads
// the shared wall clock.
func TestDefaultClockIsWallClock(t *testing.T) {
	m, err := Open("data", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := time.Now().Add(-time.Second)
	got := m.opts.Now()
	if got.Before(before) || got.After(time.Now().Add(time.Second)) {
		t.Fatalf("the default clock returned %v", got)
	}
}

// TestNoDirectTimeNow bans time.Now in every non-test file: each
// wall-clock read in this package must flow through the injected
// Options.Now so rotation, fsync pacing and recovery stay deterministic
// under test. A new call site is a build-time design regression, caught
// here.
func TestNoDirectTimeNow(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(".", name), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg.Name == "time" && sel.Sel.Name == "Now" {
				t.Errorf("%s: direct time.Now call — route it through the injected Options.Now",
					fset.Position(sel.Pos()))
			}
			return true
		})
	}
}
