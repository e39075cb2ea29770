package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ndpext/internal/runspec"
	"ndpext/internal/simcache"
	"ndpext/internal/system"
)

func TestTableString(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"a", "longheader"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatalf("missing title: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
	// Columns align: both data rows start their second column at the
	// same offset.
	if strings.Index(lines[2], "1") != strings.Index(lines[3], "2") {
		t.Fatalf("misaligned columns:\n%s", s)
	}
}

func TestOptionsScales(t *testing.T) {
	d, q := Default(), Quick()
	if len(d.Workloads) != 13 {
		t.Fatalf("default covers %d workloads", len(d.Workloads))
	}
	if len(q.Workloads) >= len(d.Workloads) || q.AccessesPerCore >= d.AccessesPerCore {
		t.Fatal("quick scale not smaller")
	}
}

func TestFig4bShape(t *testing.T) {
	tbl, times := Fig4b()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if times[512] <= 0 {
		t.Fatal("no timing recorded")
	}
	// The paper's point: assignment stays fast (sub-10ms even at 512
	// streams, scaled for a Go implementation).
	if times[512].Milliseconds() > 100 {
		t.Fatalf("assignment at 512 streams took %v; far off the paper's sub-ms claim", times[512])
	}
}

// TestTraceCacheSharesOneTrace: concurrent experiment cells share one
// generated trace per key (a run never mutates its input), and distinct
// keys get distinct traces.
func TestTraceCacheSharesOneTrace(t *testing.T) {
	spec := runspec.Spec{Workload: "pr", Seed: 1, Accesses: 500, Scale: 1}
	a, err := traces.Get(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traces.Get(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("traces.Get generated the same key twice")
	}
	c, err := traces.Get(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || len(c.PerCore) != 4 {
		t.Fatalf("traces.Get for 4 cores returned %d-core trace (shared with 8 cores: %v)", len(c.PerCore), c == a)
	}
}

func TestFormatters(t *testing.T) {
	if f2(1.234) != "1.23" || f1(1.26) != "1.3" || pct(0.5) != "50.0%" {
		t.Fatal("formatters wrong")
	}
}

func TestCompareTables(t *testing.T) {
	before := Table{
		Title:   "demo",
		Columns: []string{"workload", "speedup", "hit"},
		Rows: [][]string{
			{"pr", "1.00", "50.0%"},
			{"mv", "2.00", "80.0%"},
		},
	}
	after := Table{
		Title:   "demo",
		Columns: []string{"workload", "speedup", "hit"},
		Rows: [][]string{
			{"pr", "1.50", "60.0%"},
			{"mv", "2.00", "80.0%"},
			{"new", "9.99", "1.0%"},
		},
	}
	cmp, err := CompareTables(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Deltas) != 4 {
		t.Fatalf("deltas = %d, want 4 (2 rows x 2 numeric cols)", len(cmp.Deltas))
	}
	var prSpeedup *Delta
	for i := range cmp.Deltas {
		d := &cmp.Deltas[i]
		if d.Row == "pr" && d.Column == "speedup" {
			prSpeedup = d
		}
	}
	if prSpeedup == nil || prSpeedup.Before != 1.0 || prSpeedup.After != 1.5 {
		t.Fatalf("pr speedup delta wrong: %+v", prSpeedup)
	}
	if r := prSpeedup.Rel(); r < 0.49 || r > 0.51 {
		t.Fatalf("relative change = %v, want 0.5", r)
	}
	if cmp.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestCompareTablesRejectsMismatch(t *testing.T) {
	if _, err := CompareTables(Table{Title: "a"}, Table{Title: "b"}); err == nil {
		t.Fatal("different titles compared")
	}
}

func TestReadTablesStream(t *testing.T) {
	a := Table{Title: "one", Columns: []string{"x"}, Rows: [][]string{{"1"}}}
	b := Table{Title: "two", Columns: []string{"y"}, Rows: [][]string{{"2"}}}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	tables, err := ReadTables(strings.NewReader(string(ja) + "\n" + string(jb)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Title != "one" || tables[1].Title != "two" {
		t.Fatalf("tables = %+v", tables)
	}
	if _, err := ReadTables(strings.NewReader("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestDeltaRelEdgeCases(t *testing.T) {
	if (Delta{Before: 0, After: 0}).Rel() != 0 {
		t.Fatal("0->0 should be 0")
	}
	if (Delta{Before: 0, After: 1}).Rel() < 1e8 {
		t.Fatal("0->x should be huge")
	}
}

// The worker pool must return results in cell order and change nothing
// about the simulations themselves: each (config, workload) result must
// match a serial run of the same cell bit for bit.
func TestRunCellsMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine simulations")
	}
	freshCaches(t)
	opt := Options{Workloads: []string{"pr"}, AccessesPerCore: 1000, Seed: 7}
	cells := []Cell{
		{Config: system.DefaultConfig(system.NDPExt), Workload: "pr"},
		{Config: system.DefaultConfig(system.Nexus), Workload: "pr"},
		{Config: system.DefaultConfig(system.NDPExt), Workload: "pr"}, // duplicate: exercises the result cache
	}
	par, err := RunCells(cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(par), len(cells))
	}
	// Two designs on one workload generate its trace once; a worker that
	// joined the in-flight generation counts as a miss and a dedup.
	if st := traces.Stats(); st.Misses-st.Dedups != 1 || st.Entries != 1 {
		t.Fatalf("trace cache after one workload: %+v, want one generation", st)
	}
	spec := runspec.Spec{Workload: "pr", Seed: opt.Seed, Accesses: opt.AccessesPerCore, Scale: 1}
	for i, c := range cells {
		// The serial reference carries its trace, so it simulates again
		// instead of returning the pooled run's cached result.
		c.Trace, err = traces.Get(spec, c.Config.NumUnits())
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := par[i]
		if got.Design != c.Config.Design {
			t.Fatalf("cell %d: result for %v in %v's slot", i, got.Design, c.Config.Design)
		}
		if got.Time != want.Time || got.Breakdown != want.Breakdown ||
			got.CacheHits != want.CacheHits || got.Energy != want.Energy {
			t.Fatalf("cell %d (%v): pooled run diverged from serial run", i, c.Config.Design)
		}
	}
	if par[0].Time != par[2].Time {
		t.Fatal("identical cells produced different results")
	}
}

func TestRunCellsPropagatesErrors(t *testing.T) {
	opt := Options{Workloads: []string{"pr"}, AccessesPerCore: 100, Seed: 1}
	bad := system.DefaultConfig(system.NDPExt)
	bad.UnitRows = 0
	if _, err := RunCells([]Cell{{Config: bad, Workload: "pr"}}, opt); err == nil {
		t.Fatal("invalid config did not surface an error")
	}
	if _, err := RunCells([]Cell{{Config: system.DefaultConfig(system.NDPExt), Workload: "no-such-workload"}}, opt); err == nil {
		t.Fatal("unknown workload did not surface an error")
	}
}

// One poisoned cell must not take down the batch: its panic is
// recovered into a typed RowError carrying the cell's (design,
// workload), and every other cell still returns its result in place.
func TestRunCellsRecoversPoisonedRow(t *testing.T) {
	testRunHook = func(cfg system.Config, name string) {
		if cfg.Design == system.Nexus {
			panic("poisoned cell")
		}
	}
	defer func() { testRunHook = nil }()

	opt := Options{Workloads: []string{"pr"}, AccessesPerCore: 500, Seed: 7}
	cfg := system.DefaultConfig(system.NDPExt)
	cfg.UnitRows = 64 // shrink for test speed
	ncfg := system.DefaultConfig(system.Nexus)
	ncfg.UnitRows = 64
	cells := []Cell{{Config: cfg, Workload: "pr"}, {Config: ncfg, Workload: "pr"}, {Config: cfg, Workload: "pr"}}
	results, err := RunCells(cells, opt)
	if err == nil {
		t.Fatal("poisoned row surfaced no error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Rows) != 1 {
		t.Fatalf("got %d failed rows, want 1: %v", len(be.Rows), be)
	}
	re := be.Rows[0]
	if re.Index != 1 || !re.Panicked || re.Design != "Nexus" || re.Workload != "pr" {
		t.Fatalf("bad row error: %+v", re)
	}
	if !strings.Contains(re.Error(), "poisoned cell") || !strings.Contains(re.Error(), "panic") {
		t.Fatalf("row error hides the panic value: %q", re.Error())
	}
	if be.ByIndex(1) != re || be.ByIndex(0) != nil {
		t.Fatal("ByIndex lookup wrong")
	}

	// Survivors keep their slots; the poisoned slot is nil.
	if results[1] != nil {
		t.Fatal("poisoned slot holds a result")
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("surviving cells lost their results")
	}
	if results[0].Time != results[2].Time {
		t.Fatal("identical surviving cells diverged")
	}
	// And the survivors match an unpoisoned serial run exactly.
	want, err2 := run(Cell{Config: cfg, Workload: "pr"}, opt)
	if err2 != nil {
		t.Fatal(err2)
	}
	if results[0].Time != want.Time || results[0].Energy != want.Energy {
		t.Fatal("survivor result diverged from serial run")
	}
}

func TestRunCellsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Workloads: []string{"pr"}, AccessesPerCore: 500, Seed: 1, Ctx: ctx}
	cells := []Cell{
		{Config: system.DefaultConfig(system.NDPExt), Workload: "pr"},
		{Config: system.DefaultConfig(system.Nexus), Workload: "pr"},
	}
	results, err := RunCells(cells, opt)
	var be *BatchError
	if !errors.As(err, &be) || len(be.Rows) != len(cells) {
		t.Fatalf("canceled batch: err = %v, want a BatchError covering all %d cells", err, len(cells))
	}
	for i, r := range be.Rows {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("row %d: err = %v, want context.Canceled", i, r.Err)
		}
		_ = results[i] // slots exist; canceled cells may hold nil
	}
}

func TestRunDedupsIdenticalCells(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine simulations")
	}
	opt := Options{Workloads: []string{"pr"}, AccessesPerCore: 600, Seed: 99}
	cell := Cell{Config: system.DefaultConfig(system.NDPExt), Workload: "pr"}
	before := resultCache.Stats()
	a, err := run(cell, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cell, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := resultCache.Stats()
	if hits := after.Hits - before.Hits; hits < 1 {
		t.Errorf("second identical run missed the result cache (hits delta %d)", hits)
	}
	if a != b {
		t.Error("deduped runs returned distinct result objects")
	}
	// A different seed must not alias the cached cell.
	opt.Seed = 100
	c, err := run(cell, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different seed returned the cached result")
	}

	// A cell carrying its own trace simulates every time and never
	// touches the result cache.
	cell.Trace, err = traces.Get(runspec.Spec{Workload: "pr", Seed: 99, Accesses: 600, Scale: 1}, cell.Config.NumUnits())
	if err != nil {
		t.Fatal(err)
	}
	before = resultCache.Stats()
	d, err := run(cell, opt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := run(cell, opt)
	if err != nil {
		t.Fatal(err)
	}
	if after := resultCache.Stats(); after != before {
		t.Errorf("trace-carrying cells used the result cache: %+v -> %+v", before, after)
	}
	if d == e || d == a {
		t.Error("trace-carrying cell returned a cached result")
	}
	if d.Time != a.Time || d.Energy != a.Energy {
		t.Error("replaying the generated trace diverged from the generated cell")
	}
}

// freshCaches gives the test empty result and trace caches, so counts
// hold under -count > 1.
func freshCaches(t *testing.T) {
	t.Helper()
	results, trs := resultCache, traces
	resultCache, traces = simcache.New[*system.Result](512, 0), runspec.NewTraces()
	t.Cleanup(func() { resultCache, traces = results, trs })
}
