package routeconv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGuards holds the source rules that a passing simulation cannot show,
// one subtest each. They read the syntax tree, not the text, so a rule
// holds however the source is laid out.
func TestGuards(t *testing.T) {
	// The timeline renderer builds each NDJSON line with strconv in one
	// reused buffer; fmt boxes every integer it prints, which once made
	// the renderer most of a traced trial's allocations. No file of the
	// package imports fmt, so no helper the renderer calls can use it.
	t.Run("no fmt in the timeline renderer", func(t *testing.T) {
		for _, file := range importers(t, "internal/obs", "fmt") {
			t.Errorf("%s imports fmt", file)
		}
	})
	// Routing hot paths iterate dense tables in ascending index order;
	// map+sort.Slice iteration must not creep back in (tests may still
	// sort for assertions).
	t.Run("no sort.Slice in routing", func(t *testing.T) {
		for _, at := range routingNodes(t, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && pkg.Name == "sort" && sel.Sel.Name == "Slice"
		}) {
			t.Errorf("%s: sort.Slice in a routing hot path", at)
		}
	})
	// Routing state is dense: per-neighbor tables are indexed by the
	// neighbor's rank (netsim.Node.Rank), per-destination ones by node ID.
	// BGP's path table is keyed by a fixed-size (head, tail) cell.
	t.Run("no NodeID-keyed maps in routing", func(t *testing.T) {
		for _, at := range routingNodes(t, func(n ast.Node) bool { return mapKeyNamed(n, "NodeID") }) {
			t.Errorf("%s: map keyed by node ID in routing state", at)
		}
	})
	// A string key means building and hashing a byte string per lookup;
	// routing state keys its maps by fixed-size values.
	t.Run("no string-keyed maps in routing", func(t *testing.T) {
		for _, at := range routingNodes(t, func(n ast.Node) bool { return mapKeyNamed(n, "string") }) {
			t.Errorf("%s: string-keyed map in routing", at)
		}
	})
}

// routingNodes returns the positions of the syntax nodes in the non-test
// files under internal/routing for which match holds.
func routingNodes(t *testing.T, match func(ast.Node) bool) []token.Position {
	t.Helper()
	fset := token.NewFileSet()
	var out []token.Position
	err := filepath.WalkDir("internal/routing", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil && match(n) {
				out = append(out, fset.Position(n.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mapKeyNamed reports whether n is a map type whose key is the type name,
// bare or qualified by a package (netsim.NodeID).
func mapKeyNamed(n ast.Node, name string) bool {
	m, ok := n.(*ast.MapType)
	if !ok {
		return false
	}
	switch key := m.Key.(type) {
	case *ast.Ident:
		return key.Name == name
	case *ast.SelectorExpr:
		return key.Sel.Name == name
	}
	return false
}

// importers returns the non-test files of the package in dir that import
// the package path.
func importers(t *testing.T, dir, path string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == path {
				out = append(out, name)
			}
		}
	}
	return out
}
