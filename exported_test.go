package routeconv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// implicitMethods are called by the standard library through an
// interface it asserts at run time (fmt, encoding/json, sort, heap,
// flag), so production code never names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"GobEncode": true, "GobDecode": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true,
}

// goFile is one parsed Go file and the directory of its package, relative
// to the module root.
type goFile struct {
	path, dir string
	f         *ast.File
}

// productionFiles parses every non-test Go file of the repository
// (bench/ included, testdata and dot-directories skipped).
func productionFiles(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{path, filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// imports maps each local name a file gives a package of this module to
// that package's directory; pkgName maps a directory to its package name.
func imports(f *ast.File, pkgName map[string]string) map[string]string {
	local := map[string]string{}
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		dir, ok := strings.CutPrefix(path, "routeconv/")
		if path == "routeconv" {
			dir, ok = ".", true
		}
		if !ok {
			continue
		}
		name := pkgName[dir]
		if im.Name != nil {
			name = im.Name.Name
		}
		local[name] = dir
	}
	return local
}

// TestInternalExportsHaveProductionCallers: every exported function or
// method declared in a non-test file under internal/ is named by some
// non-test file of the repository (the facade, cmd/ and bench/ count as
// callers). An export that only tests call belongs in the test files, or
// nowhere. A package-level function counts as called only where it is
// named qualified by its package (core.Run) or unqualified in a non-test
// file of its own package, so a same-named field or method elsewhere
// (Packet.Trace) does not keep it alive. A method is matched by name
// alone: any production reference to a same-named identifier keeps it. A
// test harness package (one whose non-test files import testing, like
// routing/conformance) exists for tests and is not checked.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ pos, dir, key, name string }
	var decls []decl
	fset := token.NewFileSet()
	files := productionFiles(t, fset)
	pkgName := map[string]string{}
	for _, gf := range files {
		pkgName[gf.dir] = gf.f.Name.Name
	}
	called := map[string]bool{}  // "dir.Func"
	names := map[string]bool{}   // every identifier, for methods
	harness := map[string]bool{} // dirs whose non-test files import testing
	for _, gf := range files {
		internal := strings.HasPrefix(gf.dir+"/", "internal/")
		local := imports(gf.f, pkgName)
		for _, im := range gf.f.Imports {
			harness[gf.dir] = harness[gf.dir] || im.Path.Value == `"testing"`
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range gf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !internal || !fn.Name.IsExported() || (fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				continue
			}
			name, key := fn.Name.Name, gf.dir+"."+fn.Name.Name
			if fn.Recv != nil {
				name, key = recvType(fn.Recv.List[0].Type)+"."+name, ""
			}
			decls = append(decls, decl{fset.Position(fn.Pos()).String(), gf.dir, key, name})
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
					called[local[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if declared[n] {
					break
				}
				names[n.Name] = true
				if !sels[n] {
					called[gf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}
	var unused []string
	for _, d := range decls {
		if harness[d.dir] {
			continue
		}
		if d.key != "" && !called[d.key] || d.key == "" && !names[d.name[strings.LastIndex(d.name, ".")+1:]] {
			unused = append(unused, d.pos+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported with no production caller: %s", u)
	}
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// TestFacadeNamesHaveReaders: every exported identifier of routeconv.go
// is read somewhere a user looks. It is named by an Example function of
// this package, by code in README.md, OBSERVABILITY.md or SCENARIOS.md
// (a fenced block or an inline span), or by a non-test Go file other than
// routeconv.go. A facade name nothing reads goes; callers reach what it
// aliased through the names that remain (Config.Topo, not a generator
// wrapper).
func TestFacadeNamesHaveReaders(t *testing.T) {
	fset := token.NewFileSet()
	read := map[string]bool{}
	code := regexp.MustCompile("(?s)```.*?```|`[^`]+`") // fenced block or inline span
	ident := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	for _, doc := range []string{"README.md", "OBSERVABILITY.md", "SCENARIOS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range code.FindAllString(string(text), -1) {
			for _, name := range ident.FindAllString(c, -1) {
				read[name] = true
			}
		}
	}
	// reads records what n names of the facade: routeconv.X through the
	// import, or X itself in the root package.
	reads := func(n ast.Node, local map[string]string, root bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] == "." {
					read[n.Sel.Name] = true
				}
			case *ast.Ident:
				if root {
					read[n.Name] = true
				}
			}
			return true
		})
	}
	pkgName := map[string]string{".": "routeconv"}
	for _, gf := range productionFiles(t, fset) {
		if gf.path != "routeconv.go" {
			reads(gf.f, imports(gf.f, pkgName), gf.dir == ".")
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := imports(f, pkgName)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				reads(fn.Body, local, f.Name.Name == "routeconv")
			}
		}
	}

	facade, err := parser.ParseFile(fset, "routeconv.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	check := func(id *ast.Ident) {
		if id.IsExported() && !read[id.Name] {
			t.Errorf("%s: facade name %s is read by no Example, doc or non-test caller", fset.Position(id.Pos()), id.Name)
		}
	}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			check(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					check(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						check(id)
					}
				}
			}
		}
	}
}
