package system

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoWallClock fences the simulator off from wall time: no non-test
// file of the package imports "time". A run's only wall-clock stop is
// its context's deadline, so simulated results and the canonical config
// bytes can never depend on how fast the host is.
func TestNoWallClock(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
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
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				t.Errorf("%s imports time", file)
			}
		}
	}
}
