// Command ndpbench is the repository's benchmark: four workloads that
// each drive a different set of layers through their public APIs, with
// end-to-end metrics measured with tracing off and per-layer metrics from
// a separate traced pass. See README.md for the workloads, the metrics
// and how to compare two commits.
//
// Usage (from the repository root; run.sh builds and runs the command):
//
//	bash cmd/ndpbench/run.sh -workload <name|all> [-seed 1] [-seconds 15] [-trace 0|1]
//	                         [-dir .bench_build/ndpbench] [-out runs.jsonl]
//	bash cmd/ndpbench/run.sh -compare [-bounds BENCHMARK.json] base.jsonl head.jsonl
//
// A run prints a host stamp, one "workload metric value unit" line per
// metric, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero when any check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// benchWorkload is one workload: a set of inputs and the code that
// drives the layers with them. README.md records why each was chosen.
type benchWorkload struct {
	name string
	run  func(o runOpts) *report
}

var benchWorkloads = []benchWorkload{
	{"stream-reconfig", func(o runOpts) *report { return runSim(o, streamReconfigCells) }},
	{"stream-static", func(o runOpts) *report { return runSim(o, streamStaticCells) }},
	{"nuca-baselines", func(o runOpts) *report { return runSim(o, nucaCells) }},
	{"serve-cluster", runServe},
}

// maxSetupReps bounds the set-ups of a workload whose set-up is cheap
// enough to repeat for size.setupMin.
const maxSetupReps = 25

// size holds every input-size setting, so tests can shrink a run.
type size struct {
	accessesPerCore int     // per-core trace budget of the simulation workloads
	mult            float64 // workloads.Scale.Mult; serve-cluster jobs' scale
	minPasses       int     // timed passes even when -seconds is shorter
	setupReps       int     // set-ups whose median is setup_s, at least
	setupMin        time.Duration
	serveAccesses   int // per-core budget of serve-cluster's jobs
}

var fullSize = size{
	accessesPerCore: 4000,
	mult:            1,
	minPasses:       3,
	setupReps:       3,
	setupMin:        time.Second,
	serveAccesses:   4000,
}

// runOpts configures one workload run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch files and traced-pass output
	size     size
}

// report is what a workload run measured and checked.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	passes    int
}

func newReport() *report {
	r := &report{metrics: map[string]float64{}}
	for _, m := range layerMetrics {
		r.metrics[m.name] = 0 // a layer that does no work reads 0
	}
	return r
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// abort records an error that stopped the run before it could measure.
func (r *report) abort(what string, err error) *report {
	r.op(what, err)
	return r
}

// valueUnit is one metric in the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// record is one run as appended to -out, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Stamp    stamp  `json:"stamp"`
	resultLine
}

// stamp identifies the host and build a number was measured on.
type stamp struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Seed       uint64 `json:"seed"`
	Date       string `json:"date"`
	Passes     int    `json:"passes"`
}

func hostStamp(seed uint64, passes int) stamp {
	host, _ := os.Hostname() // best effort: the stamp is informational
	return stamp{
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Revision:   revision(),
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Passes:     passes,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("# host=%s nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s seed=%d date=%s passes=%d",
		s.Host, s.NProc, s.GOMAXPROCS, s.CPU, s.Go, s.Revision, s.Seed, s.Date, s.Passes)
}

// cpuModel reads the CPU model name on Linux; "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, with a "+"
// when the tree had uncommitted changes; "unknown" outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+"
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "workload to run, or \"all\" (one fresh process each): "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed: 1 for development, 7 held out for claims")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload")
	traceFlag := flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead of the end-to-end ones")
	dir := flag.String("dir", ".bench_build/ndpbench", "directory for scratch files and traced-pass spans and profiles")
	out := flag.String("out", "", "append this run's record (host stamp and metrics) as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two files of -out records: -compare base.jsonl head.jsonl")
	bounds := flag.String("bounds", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two record files, got %d", flag.NArg())
		}
		if err := runCompare(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	o := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		dir:     *dir,
		size:    fullSize,
	}
	if *workload == "all" {
		if !runAll(os.Stdout, o, *out) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatalf("unknown workload %q (have %s, all)", *workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	o.workload = w.name
	r := w.run(o)
	line := finish(w.name, r, o.trace)
	st := hostStamp(o.seed, r.passes)
	fmt.Println(st)
	printMetrics(os.Stdout, w.name, line)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "ndpbench: FAIL", w.name, f)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: o.seed, Trace: o.trace, Stamp: st, resultLine: line}); err != nil {
			fatalf("%v", err)
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ndpbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// finish selects the metrics the mode reports and decides correctness:
// every check passed and every reported value is finite, with the
// end-to-end ones positive.
func finish(workload string, r *report, traced bool) resultLine {
	set := e2eMetrics
	if traced {
		set = layerMetrics
	}
	if r.attempted > 0 {
		r.metrics["error_rate"] = float64(r.failed) / float64(r.attempted)
	}
	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueUnit{}}
	bad := 0
	for _, m := range set {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			fmt.Fprintf(os.Stderr, "ndpbench: %s: metric %s missing or out of range (%v)\n", workload, m.name, v)
			bad++
			v = 0
		}
		line.Metrics[m.name] = valueUnit{Value: v, Unit: m.unit}
	}
	line.Correct = r.failed == 0 && bad == 0
	return line
}

// printMetrics prints "workload metric value unit" lines in declaration
// order.
func printMetrics(w io.Writer, workload string, line resultLine) {
	for _, set := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range set {
			if vu, ok := line.Metrics[m.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", workload, m.name, vu.Value, vu.Unit)
			}
		}
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a fresh process of this binary, so one
// workload's heap and peak RSS never leak into the next, relays their
// output, and ends with one JSON line whose metric names are prefixed by
// the workload. It reports whether every run was correct.
func runAll(w io.Writer, o runOpts, out string) bool {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	all := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, bw := range benchWorkloads {
		args := []string{
			"-workload", bw.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds.Seconds()), "-trace", traceArg, "-dir", o.dir,
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(w, l)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: %s printed no result (%v)\n", bw.name, runErr)
			line = resultLine{Attempted: 1, Failed: 1}
		}
		all.Correct = all.Correct && line.Correct && runErr == nil
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, v := range line.Metrics {
			all.Metrics[bw.name+"."+k] = v
		}
	}
	enc, err := json.Marshal(all)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(w, string(enc))
	return all.Correct
}
