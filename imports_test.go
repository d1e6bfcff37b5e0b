package tracon

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// repoImports returns, for each non-test Go file in dir, the packages of
// this module it imports. It reads import clauses only.
func repoImports(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	out := map[string][]string{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "tracon" || strings.HasPrefix(p, "tracon/") {
				out[filepath.ToSlash(file)] = append(out[filepath.ToSlash(file)], p)
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestImportBoundaries holds ROADMAP item 12(a)'s split. internal/obs is
// the daemon's telemetry: no non-test file of it imports a package of this
// module. And the daemon does not link the simulator: the non-test import
// closure of cmd/tracond reaches neither internal/sim nor internal/fault.
func TestImportBoundaries(t *testing.T) {
	obsImports := repoImports(t, "internal/obs")
	for _, file := range sortedKeys(obsImports) {
		t.Errorf("%s imports %s; internal/obs may import no package of this module",
			file, strings.Join(obsImports[file], ", "))
	}

	// Breadth first over tracond's closure, remembering who imported each
	// package so that a violation names its import chain.
	const root = "tracon/cmd/tracond"
	importer := map[string]string{root: ""}
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		dir := strings.TrimPrefix(strings.TrimPrefix(queue[0], "tracon"), "/")
		if dir == "" {
			dir = "."
		}
		files := repoImports(t, dir)
		for _, file := range sortedKeys(files) {
			for _, imp := range files[file] {
				if _, seen := importer[imp]; !seen {
					importer[imp] = queue[0]
					queue = append(queue, imp)
				}
			}
		}
	}
	for _, banned := range []string{"tracon/internal/sim", "tracon/internal/fault"} {
		if _, linked := importer[banned]; !linked {
			continue
		}
		chain := []string{banned}
		for p := importer[banned]; p != ""; p = importer[p] {
			chain = append([]string{p}, chain...)
		}
		t.Errorf("cmd/tracond links %s: %s", banned, strings.Join(chain, " → "))
	}
	t.Logf("cmd/tracond's import closure: %d packages of this module", len(importer))
}
