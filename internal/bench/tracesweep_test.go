package bench

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ndpext/internal/runspec"
	"ndpext/internal/system"
	tracefmt "ndpext/internal/trace"
)

// saveTrace writes pr at 500 accesses/core for a machine of cores cores
// to a file under dir and returns its path.
func saveTrace(t *testing.T, dir string, cores int) string {
	t.Helper()
	tr, err := runspec.Spec{Workload: "pr", Seed: 1, Accesses: 500, Scale: 1}.Generate(cores)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pr.ndptrc")
	if err := tracefmt.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceSweep round-trips a generated workload through the trace
// format and sweeps it: every design row must appear, the host row must
// normalize to 1.00, and a core-width mismatch must be rejected with a
// usable error instead of a silent skip.
func TestTraceSweep(t *testing.T) {
	path := saveTrace(t, t.TempDir(), system.DefaultConfig(system.NDPExt).NumUnits())
	tbl, err := TraceSweep(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Host", "Jigsaw", "Whirlpool", "Nexus", "NDPExt-static", "NDPExt"}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(tbl.Rows), len(want), tbl.Rows)
	}
	for i, d := range want {
		if tbl.Rows[i][0] != d {
			t.Errorf("row %d: design %q, want %q", i, tbl.Rows[i][0], d)
		}
	}
	if tbl.Rows[0][2] != "1.00" {
		t.Errorf("host speedup %q, want 1.00", tbl.Rows[0][2])
	}

	// Wrong width: a 2-core trace cannot drive the 128-unit machines.
	if _, err := TraceSweep(saveTrace(t, t.TempDir(), 2), Options{}); err == nil {
		t.Fatal("2-core trace accepted by a sweep over the 128-unit machines")
	}
}

// TestSweepsRecoverPoisonedRow: a panic in one design of a trace sweep
// and in one arm of the adaptive sweep comes back as a panicked row of a
// *BatchError, and every other row keeps its result.
func TestSweepsRecoverPoisonedRow(t *testing.T) {
	testRunHook = func(cfg system.Config, name string) {
		if cfg.Design == system.Nexus || cfg.Adapt.Arms == "static" {
			panic("poisoned cell")
		}
	}
	defer func() { testRunHook = nil }()

	check := func(sweep string, tbl Table, err error, poisoned int) {
		t.Helper()
		var be *BatchError
		if !errors.As(err, &be) || len(be.Rows) != 1 || be.Rows[0].Index != poisoned || !be.Rows[0].Panicked {
			t.Fatalf("%s: err = %v, want a *BatchError with row %d panicked", sweep, err, poisoned)
		}
		for i, row := range tbl.Rows {
			failed := strings.HasPrefix(row[1], "FAILED(panic: poisoned cell)")
			if failed != (i == poisoned) || (!failed && len(row) != len(tbl.Columns)) {
				t.Errorf("%s row %d: %v", sweep, i, row)
			}
		}
	}

	tbl, err := TraceSweep(saveTrace(t, t.TempDir(), system.DefaultConfig(system.NDPExt).NumUnits()), Options{})
	if len(tbl.Rows) != 6 || tbl.Rows[0][2] != "1.00" {
		t.Fatalf("trace sweep rows: %v", tbl.Rows)
	}
	check("trace sweep", tbl, err, 3)

	tbl, metrics, err := AdaptSweep(Quick())
	if len(tbl.Rows) != len(adaptRegimes) || metrics != nil {
		t.Fatalf("adapt sweep: %d rows, metrics %v", len(tbl.Rows), metrics)
	}
	check("adapt sweep", tbl, err, 2)
}
