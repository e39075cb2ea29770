package golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files (prints a diff of every change)")

// TestGolden re-simulates every pinned case and requires the canonical
// result document to match the committed golden byte for byte. Run with
// -update to regenerate after a deliberate semantic change.
func TestGolden(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			got, err := c.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			path := filepath.Join("testdata", c.Name+".json")
			want, err := os.ReadFile(path)
			if *update {
				if err == nil && string(want) == string(got) {
					return // unchanged
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					t.Logf("WROTE %s (new golden)", path)
					return
				}
				lines, derr := Diff(want, got)
				if derr != nil {
					t.Fatalf("diff after update: %v", derr)
				}
				t.Logf("UPDATED %s — %d field(s) changed:", path, len(lines))
				for _, l := range lines {
					t.Logf("  %s", l)
				}
				return
			}
			if err != nil {
				t.Fatalf("missing golden %s (run with -update to create it): %v", path, err)
			}
			if string(want) == string(got) {
				return
			}
			lines, derr := Diff(want, got)
			if derr != nil {
				t.Fatalf("documents differ and diff failed: %v", derr)
			}
			if len(lines) == 0 {
				t.Fatalf("golden %s differs only in formatting — regenerate with -update", path)
			}
			t.Errorf("result drifted from golden %s in %d field(s):", path, len(lines))
			for _, l := range lines {
				t.Errorf("  %s", l)
			}
			t.Error("if this change is intentional, regenerate with: go test ./internal/golden -run TestGolden -update")
		})
	}
}

// TestGoldenCasesDistinct guards the matrix itself: duplicate names
// would silently share one golden file.
func TestGoldenCasesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestGoldenPinsRedirects requires the committed fault goldens to pin
// the dead-vault redirect on both miss paths: the stream path
// (ndpext-redirect-pr) and the NUCA path (jigsaw-faults-pr,
// nexus-faults-pr). A failure on an epoch boundary remaps the dead
// unit's data before any access is homed there, so a case can lose its
// redirects without any other sign.
func TestGoldenPinsRedirects(t *testing.T) {
	for _, name := range []string{"ndpext-redirect-pr", "jigsaw-faults-pr", "nexus-faults-pr"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := doc.Metrics["fault.vault_redirects"]; n <= 0 {
			t.Errorf("%s: fault.vault_redirects = %v, want > 0", name, n)
		}
	}
}

// TestDiff exercises the field-by-field differ the golden failures rely
// on, including nested objects and absent fields.
func TestDiff(t *testing.T) {
	a := []byte(`{"x":1,"sub":{"y":2,"z":3},"arr":[1,2]}`)
	b := []byte(`{"x":1,"sub":{"y":5},"arr":[1,3],"new":true}`)
	lines, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"sub/y: 2 -> 5":         true,
		"sub/z: 3 -> (absent)":  true,
		"arr[1]: 2 -> 3":        true,
		"new: (absent) -> true": true,
	}
	if len(lines) != len(want) {
		t.Fatalf("diff lines = %v, want %d entries", lines, len(want))
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("unexpected diff line %q", l)
		}
	}
	same, err := Diff(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Fatalf("self-diff produced %v", same)
	}
}
