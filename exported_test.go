package routeconv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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

// TestInternalExportsHaveProductionCallers: every exported function or
// method declared in a non-test file under internal/ is named by some
// non-test file of the repository (the facade, cmd/, examples/ and
// bench/ count as callers). An export that only tests call belongs in
// the test files, or nowhere. The match is by name, so a method is kept
// alive by any production reference to a same-named identifier.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ pos, name string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
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
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !internal || !fn.Name.IsExported() || (fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvType(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{fset.Position(fn.Pos()).String(), name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if !refs[d.name[strings.LastIndex(d.name, ".")+1:]] {
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
