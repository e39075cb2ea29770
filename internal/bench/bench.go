// Package bench implements the paper's experiment matrix: one entry
// point per evaluation figure/table, shared between the cmd/experiments
// CLI and the repository's bench_test.go harness. Each function returns
// printable, structured rows so EXPERIMENTS.md can record
// paper-vs-measured values.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ndpext/internal/runspec"
	"ndpext/internal/simcache"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// Options controls experiment scale.
type Options struct {
	Workloads       []string // subset of workloads.Names()
	AccessesPerCore int
	Seed            uint64
	// Ctx, when set, cancels in-flight simulations cooperatively:
	// cmd/experiments wires SIGINT/SIGTERM here so a mid-matrix ^C
	// aborts cleanly instead of waiting out the current figure.
	Ctx context.Context
}

// context returns Ctx or Background.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Default runs the full paper matrix (all 13 workloads; the synthetic
// phased trace belongs to the adaptive experiment, not the paper's
// figures).
func Default() Options {
	var names []string
	for _, n := range workloads.Names() {
		if n != "phased" {
			names = append(names, n)
		}
	}
	return Options{Workloads: names, AccessesPerCore: 30000, Seed: 1}
}

// Quick runs a representative subset for fast iteration and unit tests.
func Quick() Options {
	return Options{
		Workloads:       []string{"recsys", "pr", "hotspot", "mv"},
		AccessesPerCore: 8000,
		Seed:            1,
	}
}

// testRunHook, when non-nil, runs before each cell's simulation. Tests
// use it to poison specific rows and exercise the pool's panic recovery.
var testRunHook func(cfg system.Config, name string)

// traces holds the generated workload traces of every figure. -all
// generates 25 distinct traces (13 workloads at 128 cores, plus Fig.
// 8(a)'s four workloads at 32, 64 and 256 cores), within its bound of 32.
var traces = runspec.NewTraces()

// resultCache dedups identical (config, workload) cells across figures:
// the matrix reuses e.g. the NDPExt/hbm baseline in Figs. 5, 6, 8, and 9,
// so -all avoids re-simulating it once per figure. Results are treated
// as immutable by every consumer; errors and canceled runs never enter
// the cache (simcache.Do only stores successes).
var resultCache = simcache.New[*system.Result](512, 0)

// Cell is one (machine config, workload) simulation of an experiment
// matrix. A cell with Trace set replays that trace instead of generating
// Workload (which then only names the row), and bypasses the result
// cache.
type Cell struct {
	Config   system.Config
	Workload string
	Trace    *workloads.Trace
}

// run simulates one cell, deduplicating identical cells through
// resultCache.
func run(c Cell, opt Options) (*system.Result, error) {
	cfg := c.Config
	cores := cfg.NumUnits()
	if cfg.Design == system.Host {
		// Host folds any trace; generate at the NDP core count of the
		// default machine so all designs replay identical traces.
		cores = system.DefaultConfig(system.NDPExt).NumUnits()
	}
	spec := runspec.Spec{Workload: c.Workload, Seed: opt.Seed, Accesses: opt.AccessesPerCore, Scale: 1}
	sim := func() (*system.Result, error) {
		tr := c.Trace
		if tr == nil {
			var err error
			if tr, err = traces.Get(spec, cores); err != nil {
				return nil, err
			}
		}
		return system.RunContext(opt.context(), cfg, tr.Source())
	}
	if testRunHook != nil {
		testRunHook(cfg, c.Workload)
	}
	// The spec key does not name a carried trace, and hooks are excluded
	// from the canonical config bytes (they don't change results) but
	// must still fire on every run, so carried traces, hooked configs —
	// and test-poisoned cells — bypass the cache. The key needs no core
	// count: cores follows from cfg.
	if c.Trace != nil || testRunHook != nil || cfg.OnEpoch != nil || cfg.Probe != nil {
		return sim()
	}
	res, _, err := resultCache.Do(spec.Key(cfg, ""), sim)
	return res, err
}

// RowError describes one failed cell of an experiment matrix: which row
// it was, the (design, workload) configuration, and what went wrong. A
// recovered worker panic is reported with Panicked set.
type RowError struct {
	Index    int
	Design   string
	Workload string
	Panicked bool
	Err      error
}

func (e *RowError) Error() string {
	return fmt.Sprintf("row %d (%s, %s): %s: %v", e.Index, e.Design, e.Workload, e.kind(), e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

func (e *RowError) kind() string {
	if e.Panicked {
		return "panic"
	}
	return "error"
}

// BatchError aggregates every failed row of one RunCells batch. The
// surviving rows' results are still returned alongside it, in order.
type BatchError struct {
	Rows []*RowError
}

func (e *BatchError) Error() string {
	msgs := make([]string, len(e.Rows))
	for i, r := range e.Rows {
		msgs[i] = r.Error()
	}
	return fmt.Sprintf("%d failed cells: %s", len(e.Rows), strings.Join(msgs, "; "))
}

// ByIndex returns the failure for cell i, or nil if that cell survived.
func (e *BatchError) ByIndex(i int) *RowError {
	for _, r := range e.Rows {
		if r.Index == i {
			return r
		}
	}
	return nil
}

// failText renders failed cell i as a table cell.
func (e *BatchError) failText(i int) string {
	re := e.ByIndex(i)
	return fmt.Sprintf("FAILED(%s: %v)", re.kind(), re.Err)
}

// RunCells simulates every cell of an experiment matrix concurrently on
// a bounded worker pool (GOMAXPROCS workers) and returns the results in
// input order, so table rows stay deterministic regardless of
// scheduling. Each simulation is independent (per-run state; the trace
// and result caches are singleflight-guarded), so concurrency cannot
// change any result. A failing or panicking row does not kill the batch:
// every other cell still completes and keeps its slot, and the failures
// come back aggregated in a *BatchError (failed slots hold nil).
func RunCells(cells []Cell, opt Options) ([]*system.Result, error) {
	results := make([]*system.Result, len(cells))
	errs := make([]error, len(cells))
	panicked := make([]bool, len(cells))
	sem := make(chan struct{}, max(runtime.GOMAXPROCS(0), 1))
	ctx := opt.context()
	var wg sync.WaitGroup
	for i := range cells {
		// A canceled batch stops launching new cells; already-running
		// ones abort cooperatively inside system.RunContext and report
		// the cancellation through their own error slots.
		if err := ctx.Err(); err != nil {
			errs[i] = context.Cause(ctx)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if v := recover(); v != nil {
					errs[i] = fmt.Errorf("%v", v)
					panicked[i] = true
					results[i] = nil
				}
			}()
			results[i], errs[i] = run(cells[i], opt)
		}(i)
	}
	wg.Wait()
	var be BatchError
	for i, err := range errs {
		if err != nil {
			be.Rows = append(be.Rows, &RowError{
				Index:    i,
				Design:   cells[i].Config.Design.String(),
				Workload: cells[i].Workload,
				Panicked: panicked[i],
				Err:      err,
			})
		}
	}
	if len(be.Rows) > 0 {
		return results, &be
	}
	return results, nil
}

// Table is a generic printable result table.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// JSON renders the table as indented JSON for machine consumption.
func (t Table) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := "== " + t.Title + " ==\n"
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Columns)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepSubset narrows a sweep to representative workloads (the paper's
// Figs. 8-9 report averages; sweeping every (workload, point) pair would
// multiply runtime without changing the reported shape). Workloads not in
// opt are dropped; if the intersection is empty, opt is returned as is.
func sweepSubset(opt Options, names ...string) Options {
	have := map[string]bool{}
	for _, w := range opt.Workloads {
		have[w] = true
	}
	var keep []string
	for _, n := range names {
		if have[n] {
			keep = append(keep, n)
		}
	}
	if len(keep) == 0 {
		return opt
	}
	out := opt
	out.Workloads = keep
	return out
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
