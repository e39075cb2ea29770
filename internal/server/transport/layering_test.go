package transport

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering enforces the serving stack's one-way dependency rule at
// the source level, tests included:
//
//	transport -> scheduler -> store
//	    |            \-> result
//	    \-> wire (shared with cluster and client; imports none of them)
//
// transport and its wire module are the only layers allowed to import
// net/http; the engine and persistence layers must stay HTTP-free so they can be driven
// directly by tests, CLIs, or a future sharded-cluster fan-out.
func TestLayering(t *testing.T) {
	forbidden := map[string][]string{
		"../scheduler": {"net/http", "ndpext/internal/server/transport",
			"ndpext/internal/server/wire", "ndpext/internal/cluster"},
		"../store": {"net/http", "ndpext/internal/server/transport", "ndpext/internal/server/wire",
			"ndpext/internal/server/scheduler", "ndpext/internal/server/result",
			"ndpext/internal/cluster"},
		"../result": {"net/http", "ndpext/internal/server/transport", "ndpext/internal/server/wire",
			"ndpext/internal/server/scheduler", "ndpext/internal/server/store",
			"ndpext/internal/cluster"},
		// The chaos injector drives the engine layers directly; it must
		// stay HTTP-free so fault injection never depends on transport.
		"../chaos": {"net/http", "ndpext/internal/server/transport",
			"ndpext/internal/server/wire", "ndpext/internal/cluster"},
		// The cluster layer sits BESIDE transport at the HTTP edge: it
		// may import net/http and the client, but the two edge packages
		// must never import each other (cluster wraps transport's handler
		// as a plain http.Handler).
		".":             {"ndpext/internal/cluster"},
		"../../cluster": {"ndpext/internal/server/transport"},
		// The HTTP wire format is a leaf both edge packages and the
		// client write or read through; it knows no serving-stack type.
		"../wire": {"ndpext/internal/server/scheduler", "ndpext/internal/server/store",
			"ndpext/internal/server/result", "ndpext/internal/server/transport",
			"ndpext/internal/cluster", "ndpext/internal/client"},
	}
	fset := token.NewFileSet()
	for dir, banned := range forbidden {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files under %s — did the layer move?", dir)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				for _, bad := range banned {
					if path == bad || strings.HasPrefix(path, bad+"/") {
						t.Errorf("%s imports %s, breaking the transport->scheduler->store layering", file, path)
					}
				}
			}
		}
	}
}
