package routeconv

import (
	"go/parser"
	"go/token"
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
