package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinySize shrinks every workload so the whole suite runs in seconds.
var tinySize = size{
	accessesPerCore: 300,
	mult:            0.25,
	minPasses:       1,
	setupReps:       1,
	serveAccesses:   300,
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny size with the
// traced pass and checks that it passes its own correctness checks and
// reports every declared metric with a finite value.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := time.Nanosecond // one pass
			if w.name == "serve-cluster" {
				seconds = 2 * time.Second
			}
			dir := t.TempDir()
			r := w.run(runOpts{workload: w.name, seed: 1, seconds: seconds, trace: true, dir: dir, size: tinySize})
			for _, f := range r.failures {
				t.Error(f)
			}
			for _, traced := range []bool{false, true} {
				if line := finish(w.name, r, traced); !line.Correct {
					t.Errorf("result (traced=%v) not correct: %+v", traced, line)
				}
			}
			for _, set := range [][]metric{e2eMetrics, layerMetrics} {
				for _, m := range set {
					v, ok := r.metrics[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v (present %v)", m.name, v, ok)
					}
				}
			}
			if r.metrics["error_rate"] != 0 {
				t.Errorf("error_rate = %v", r.metrics["error_rate"])
			}
			for _, ext := range []string{".spans.jsonl", ".cpu.pprof"} {
				if _, err := os.Stat(filepath.Join(dir, w.name+"-seed1"+ext)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

//go:noinline
func busyLoop(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestProfileAttributesBusyLoop checks the profile decoder end to end: a
// busy loop in this package must own most of the sampled CPU.
func TestProfileAttributesBusyLoop(t *testing.T) {
	prof, cpu, err := profileCPU(func() { sink = busyLoop(300 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Errorf("profiled CPU time %v", cpu)
	}
	byPkg, err := cpuByPackage(prof)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range byPkg {
		total += v
	}
	// "main" in the command, its import path in the test binary.
	self := packageOf(runtime.FuncForPC(reflect.ValueOf(busyLoop).Pointer()).Name())
	if total == 0 || float64(byPkg[self]) < 0.8*float64(total) {
		t.Errorf("package %s has %d of %d sampled CPU: %v", self, byPkg[self], total, byPkg)
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, tc := range []struct{ sym, pkg, layer string }{
		{"ndpext/internal/sampler.(*Sampler).Observe", "ndpext/internal/sampler", "sampler"},
		{"ndpext/internal/system.(*ndpSim).loop.func1", "ndpext/internal/system", "system"},
		{"ndpext/internal/workloads.PageRank", "ndpext/internal/workloads", "workloads"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps", "runtime"},
		{"slices.SortFunc[go.shape.*ndpext/internal/policy.x]", "slices", "runtime"},
		{"net/http.(*conn).serve", "net/http", "serve"},
		{"ndpext/internal/server/scheduler.(*Scheduler).runJob", "ndpext/internal/server/scheduler", "serve"},
		{"main.busyLoop", "main", "other"},
	} {
		if got := packageOf(tc.sym); got != tc.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", tc.sym, got, tc.pkg)
		}
		if got := layerOf(tc.pkg); got != tc.layer {
			t.Errorf("layerOf(%q) = %q, want %q", tc.pkg, got, tc.layer)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json at the
// repository root in step with the metrics and workloads this command
// declares.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, declared %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, declared %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			better := "higher"
			if m.lowerBetter {
				better = "lower"
			}
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, declared %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", def.EndToEnd, e2eMetrics)
	check("per_layer", def.PerLayer, layerMetrics)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	// Complete separation: 2 of C(10,5) = 252 orderings are as extreme.
	if p := mannWhitneyP(a, b); math.Abs(p-2.0/252) > 1e-12 {
		t.Errorf("separated p = %v, want %v", p, 2.0/252)
	}
	if p := mannWhitneyP(a, a); p != 1 {
		t.Errorf("identical samples p = %v, want 1", p)
	}
	c := []float64{1, 3, 5, 7, 9}
	d := []float64{2, 4, 6, 8, 10}
	if p := mannWhitneyP(c, d); p < 0.5 {
		t.Errorf("interleaved p = %v, want large", p)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pairsOf := func(head []float64) [][2]float64 {
		var ps [][2]float64
		for i := range base {
			ps = append(ps, [2]float64{base[i], head[i]})
		}
		return ps
	}
	scale := func(f float64) []float64 {
		var out []float64
		for _, v := range base {
			out = append(out, v*f)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		head  []float64
		lower bool
		want  string
	}{
		{"faster", scale(0.9), true, "improved"},
		{"slower", scale(1.3), true, "regressed"},
		{"slightly slower", scale(1.05), true, "unchanged"},
		{"throughput up", scale(1.2), false, "improved"},
		{"throughput down", scale(0.7), false, "regressed"},
	} {
		if got := judge(base, tc.head, pairsOf(tc.head), tc.lower, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if got := judge(noisy, noisy, pairsOf(noisy), true, 0.1).verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}
}

// TestPairUpRepeatedSeed checks that repeated runs of one seed, as on the
// held-out seed, pair the i-th base run with the i-th head run.
func TestPairUpRepeatedSeed(t *testing.T) {
	rec := func(v float64) record {
		return record{Seed: 7, resultLine: resultLine{Metrics: map[string]valueUnit{"latency_ms_p50": {Value: v}}}}
	}
	var base, head []record
	for i := 0; i < 10; i++ {
		base = append(base, rec(100+float64(i)))
		head = append(head, rec(94+float64(i)))
	}
	bv, hv, pairs := pairUp(base, head, "latency_ms_p50")
	if len(pairs) != 10 {
		t.Fatalf("%d pairs, want 10", len(pairs))
	}
	for i, p := range pairs {
		if want := [2]float64{100 + float64(i), 94 + float64(i)}; p != want {
			t.Errorf("pair %d = %v, want %v", i, p, want)
		}
	}
	// Every head run beats its own base run by more than the base's
	// interquartile range, though not every base run.
	if c := judge(bv, hv, pairs, true, 0.25); c.wins != 10 || c.verdict != "improved" {
		t.Errorf("wins %d, verdict %s; want 10, improved", c.wins, c.verdict)
	}
}

func TestCompareReadsRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 10; seed++ {
			line := resultLine{Correct: true, Attempted: 1, Metrics: map[string]valueUnit{}}
			for _, m := range e2eMetrics {
				line.Metrics[m.name] = valueUnit{Value: factor * (100 + float64(seed%3)), Unit: m.unit}
			}
			if err := appendRecord(path, record{Workload: "stream-reconfig", Seed: seed, resultLine: line}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, head := write("base.jsonl", 1), write("head.jsonl", 1)
	var out strings.Builder
	if err := runCompare(&out, "../../BENCHMARK.json", base, head); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "unchanged"); got != len(e2eMetrics) {
		t.Errorf("want %d unchanged rows, got:\n%s", len(e2eMetrics), out.String())
	}
}
