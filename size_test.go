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
	"regexp"
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

// TestRootExportsHaveCallers extends the caller rule to the public API:
// every exported top-level identifier and method of the root tracon
// package must be referred to from a non-test .go file of the module,
// examples/ or bench/, or from inside an Example function. Outside the
// root package a name counts as referred to when it follows a dot in a
// file that imports tracon (tracon.Name, sys.Name); inside the root
// package any identifier counts. Like the internal rule, the scan is by
// name, not by type.
func TestRootExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	exported := map[string]string{} // name → where it is declared
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range roots {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, d := range parse(file).Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				where := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					where = recv.(*ast.Ident).Name + "." + where
				}
				if d.Name.IsExported() {
					exported[d.Name.Name] = where
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported[s.Name.Name] = s.Name.Name
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								exported[id.Name] = id.Name
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	// scan records the references n makes. root says n is code of the
	// root package itself, imported that its file imports tracon. A
	// method's forward to the same-named method of another type (a body
	// calling s.ctrl.Apps() inside System.Apps) is not a caller of it.
	scan := func(n ast.Node, root, imported bool) {
		decl := map[*ast.Ident]bool{}
		self := map[*ast.Ident]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				decl[x.Name] = true
				if x.Body != nil {
					ast.Inspect(x.Body, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == x.Name.Name {
							self[sel.Sel] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				decl[x.Name] = true
			case *ast.ValueSpec:
				for _, id := range x.Names {
					decl[id] = true
				}
			case *ast.Field:
				for _, id := range x.Names {
					decl[id] = true
				}
			case *ast.SelectorExpr:
				if self[x.Sel] {
					return true
				}
				if root || imported {
					used[x.Sel.Name] = true
				}
			case *ast.Ident:
				if root && !decl[x] && !self[x] {
					used[x.Name] = true
				}
			}
			return true
		})
	}
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f := parse(file)
		root := filepath.Dir(file) == "." && f.Name.Name == "tracon"
		imported := false
		for _, imp := range f.Imports {
			imported = imported || imp.Path.Value == `"tracon"`
		}
		if !strings.HasSuffix(file, "_test.go") {
			scan(f, root, imported)
			return nil
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				scan(fn.Body, root, imported)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, where := range exported {
		if !used[name] {
			dead = append(dead, where)
		}
	}
	sort.Strings(dead)
	for _, where := range dead {
		t.Errorf("no non-test caller: tracon.%s", where)
	}
	t.Logf("%d exported root identifiers checked, %d without a caller", len(exported), len(dead))
}

// flagToken matches a flag as a command line sets it: -name or --name,
// not preceded by a name character and taken whole, so "-trace-cap" sets
// trace-cap and not trace.
var flagToken = regexp.MustCompile(`(?:^|[^\w-])--?(\w[\w-]*)`)

// flagDefiners are the flag package's functions that define a flag; the
// flag's name is their first string-literal argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true,
	"IntVar": true, "Int64": true, "Int64Var": true, "String": true,
	"StringVar": true, "Uint": true, "UintVar": true, "Uint64": true,
	"Uint64Var": true, "Var": true, "TextVar": true, "BoolFunc": true,
}

// TestFlagsHaveSetters extends the caller rule to the binaries' flags:
// every flag a cmd/*/main.go defines must be set somewhere a reader or a
// check runs it — a _test.go file, scripts/*.sh, the Makefile, bench/*.go,
// README.md or EXPERIMENTS.md — written as -name (or --name) followed by
// anything but another name character, so -trace does not count for
// -trace-cap. The scan is by name, so a flag two commands share needs
// one setter between them.
func TestFlagsHaveSetters(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go (%v)", err)
	}
	type site struct{ cmd, name string }
	var flags []site
	fset := token.NewFileSet()
	for _, file := range mains {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags = append(flags, site{filepath.Base(filepath.Dir(file)), strings.Trim(lit.Value, "`\"")})
					break
				}
			}
			return true
		})
	}

	var setters []string
	for _, pattern := range []string{"scripts/*.sh", "Makefile", "bench/*.go", "README.md", "EXPERIMENTS.md"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		setters = append(setters, files...)
	}
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(file, "_test.go") {
			setters = append(setters, file)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, file := range setters {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagToken.FindAllSubmatch(src, -1) {
			set[string(m[1])] = true
		}
	}
	var unset []string
	for _, f := range flags {
		if !set[f.name] {
			unset = append(unset, f.cmd+" -"+f.name)
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("flag without a setter: %s", f)
	}
	t.Logf("%d flags checked across %d commands, %d without a setter", len(flags), len(mains), len(unset))
}
