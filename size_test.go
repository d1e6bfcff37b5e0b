package tracon

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSizeRatchet holds ROADMAP aim 2's size criterion: each directory
// named in SIZE.ratchet ("<dir> <ceiling>" per line) may hold at most that
// many lines of non-test Go, counted as `wc -l` counts them. A ceiling is
// lowered by hand, in the PR that earns it; there is no update mode.
func TestSizeRatchet(t *testing.T) {
	ratchet, err := os.ReadFile("SIZE.ratchet")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(ratchet)), "\n") {
		var dir string
		var ceiling int
		if _, err := fmt.Sscanf(line, "%s %d", &dir, &ceiling); err != nil {
			t.Fatalf("SIZE.ratchet line %q: %v", line, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		t.Logf("%s: %d non-test lines, ceiling %d", dir, lines, ceiling)
		if lines > ceiling {
			t.Errorf("%s has %d non-test lines, over its SIZE.ratchet ceiling of %d", dir, lines, ceiling)
		}
	}
}

// callerAllowlist names the internal packages TestInternalIdentifiersHaveCallers
// skips, with the reason. Entries may only be removed, never added.
var callerAllowlist = map[string]string{
	"internal/dst": "the deterministic simulation harness: no program code imports it; its own tests and `make dst` drive it",
}

// stdlibInterfaceMethods lists the methods of the standard-library
// interfaces the program implements. A file importing the package may
// declare them for the library to call, so they count as used there.
var stdlibInterfaceMethods = map[string][]string{
	"container/heap": {"Len", "Less", "Swap", "Push", "Pop"},
	"io":             {"Read", "Write", "Close"},
	"sort":           {"Len", "Less", "Swap"},
}

// TestInternalIdentifiersHaveCallers holds ROADMAP item 21: every exported
// top-level func, method, type, var and const declared in a non-test file
// under internal/ must be referred to from some non-test .go file of the
// module or of bench/, other than at a declaration. A method counts as
// referred to when its name appears as an interface method or after a dot
// that does not follow a package name; anything else when its name
// appears as any identifier. The scan is by name, not by type, so a live
// field or method of the same name elsewhere hides a dead one.
func TestInternalIdentifiersHaveCallers(t *testing.T) {
	type site struct {
		where, name string
		method      bool
	}
	var declared []site
	ident, selector := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if imp.Name != nil {
				pkgs[imp.Name.Name] = true
			} else {
				pkgs[path.Base(p)] = true
			}
			for _, m := range stdlibInterfaceMethods[p] {
				selector[m] = true
			}
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		_, allowed := callerAllowlist[dir]
		collect := strings.HasPrefix(dir, "internal/") && !allowed
		decl := map[*ast.Ident]bool{}
		note := func(id *ast.Ident, recv ast.Expr) {
			decl[id] = true
			if !collect || !id.IsExported() {
				return
			}
			s := site{where: dir + ": " + id.Name, name: id.Name, method: recv != nil}
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if r, ok := recv.(*ast.Ident); ok {
				s.where = dir + ": " + r.Name + "." + id.Name
			}
			declared = append(declared, s)
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				var recv ast.Expr
				if dd.Recv != nil {
					recv = dd.Recv.List[0].Type
				}
				note(dd.Name, recv)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						note(s.Name, nil)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							note(id, nil)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); !ok || !pkgs[id.Name] {
					selector[x.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						selector[id.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[x] {
					ident[x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, s := range declared {
		if s.method && !selector[s.name] || !s.method && !ident[s.name] {
			dead = append(dead, s.where)
		}
	}
	sort.Strings(dead)
	for _, where := range dead {
		t.Errorf("no non-test caller: %s", where)
	}
	t.Logf("%d exported internal identifiers checked, %d without a caller", len(declared), len(dead))
}
