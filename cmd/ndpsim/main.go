// Command ndpsim runs one workload on one simulated machine design and
// prints the paper's headline metrics: makespan, latency breakdown, hit
// rates, interconnect latency, and the energy decomposition.
//
// Usage:
//
//	ndpsim -workload pr -design NDPExt [-mem hbm|hmc] [-seed 1]
//	       [-accesses 30000] [-scale 1.0] [-verbose] [-json]
//	       [-record run.ndptrc] [-trace-sample 100 [-trace-out trace.jsonl]]
//	       [-bandit-seed 7 -arms paper,greedy]   (NDPExt-MAB only)
//
// The run flags (-workload, -design, -mem, -seed, -accesses, -scale,
// -reconfig, -faults, -fault-seed, -bandit-seed, -arms) are the fields
// of ndpserve's job spec, internal/runspec, with its defaults, checks and
// cache key; -max-cycles (keyed) and -max-wall (a context deadline, not
// keyed; a run it stops prints its partial result and exits 0) act as
// ndpserve's flags of those names do. Every other flag is local.
//
// -list prints the workload names, -list-designs the registered design
// names (including the adaptive ndpext-mab); both exit 0.
//
// With -json, the run emits the canonical JSON result document — the
// same bytes ndpserve caches and serves — as one object on stdout.
//
// With -record=FILE, every simulated memory access is captured into an
// NDPTRC trace file (see internal/trace) that replays byte-identically
// via -load-trace, including runs under fault injection. -load-trace
// replays an NDPTRC file with bounded memory; -save-trace writes the
// generated workload as NDPTRC and exits. The two do not combine: to
// copy or cut a recorded trace, use cp or ndptrace slice.
//
// With -trace-sample=N, every Nth simulated memory access is emitted as
// a JSONL record (core, stream, level served, per-level latency in ns)
// to -trace-out ("-" = stdout). -record and -trace-sample compose: both
// probes observe the same run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"ndpext/internal/runspec"
	"ndpext/internal/server/result"
	"ndpext/internal/system"
	"ndpext/internal/telemetry"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// options is ndpsim's command line: the run spec, its two limits, and
// the local-only flags.
type options struct {
	spec                                   runspec.Spec
	maxWall                                time.Duration
	maxCycles                              int64
	list, listDesigns, jsonOut, verbose    bool
	saveTrace, loadTrace, record, traceOut string
	traceSample                            uint64
}

// parseFlags defines ndpsim's flags on fs and parses args. The run
// flags bind to runspec.Spec fields, with the spec's defaults printed.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	sp := &o.spec
	fs.StringVar(&sp.Workload, "workload", "pr", "workload name (see -list)")
	fs.StringVar(&sp.Design, "design", "NDPExt", "design name (see -list-designs)")
	fs.StringVar(&sp.Mem, "mem", "hbm", "NDP stack memory: hbm or hmc")
	fs.Uint64Var(&sp.Seed, "seed", 1, "workload generation seed")
	fs.IntVar(&sp.Accesses, "accesses", 30000, "per-core access budget")
	fs.Float64Var(&sp.Scale, "scale", 1.0, "workload size multiplier")
	fs.BoolVar(&o.list, "list", false, "list workloads and exit")
	fs.BoolVar(&o.listDesigns, "list-designs", false, "list registered design names and exit")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the canonical JSON result document instead of text")
	fs.BoolVar(&o.verbose, "verbose", false, "print per-component detail")
	fs.StringVar(&sp.Reconfig, "reconfig", "full", "reconfiguration mode: full, partial, static")
	fs.StringVar(&o.saveTrace, "save-trace", "", "write the generated trace to this NDPTRC file and exit")
	fs.StringVar(&o.loadTrace, "load-trace", "", "replay an NDPTRC trace file instead of generating")
	fs.StringVar(&o.record, "record", "", "capture every simulated access into this NDPTRC trace file")
	fs.Uint64Var(&o.traceSample, "trace-sample", 0, "emit every Nth access as a JSONL record (0 disables)")
	fs.StringVar(&o.traceOut, "trace-out", "-", "JSONL access trace destination (\"-\" = stdout)")
	fs.StringVar(&sp.Faults, "faults", "", `fault-injection spec, e.g. "vault-fail,unit=3,at=40us;cxl-retry,rate=0.01" (see internal/fault)`)
	fs.Uint64Var(&sp.FaultSeed, "fault-seed", 1, "fault injector seed (deterministic per (spec, seed))")
	fs.Uint64Var(&sp.BanditSeed, "bandit-seed", 1, "NDPExt-MAB Thompson-sampler seed (ignored by other designs)")
	fs.StringVar(&sp.Arms, "arms", "", `NDPExt-MAB arm set, comma-separated (empty = all: "paper,static,greedy,replicate")`)
	fs.DurationVar(&o.maxWall, "max-wall", 0, "abort after this much wall-clock time, flushing partial results (0 disables)")
	fs.Int64Var(&o.maxCycles, "max-cycles", 0, "abort once simulated time passes this many core cycles (0 disables)")
	return o, fs.Parse(args)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ndpsim: ")

	opt, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if opt.list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}
	if opt.listDesigns {
		fmt.Println(strings.Join(system.DesignNames(), "\n"))
		return
	}

	spec := opt.spec.Normalize()
	cfg, err := spec.Build(opt.maxCycles)
	if err != nil {
		log.Fatal(err)
	}
	if opt.loadTrace != "" && opt.saveTrace != "" {
		log.Fatal("-save-trace and -load-trace do not combine (copy the file, or cut it with ndptrace slice)")
	}

	// Load or generate the workload. Trace files replay through the
	// streaming source (bounded memory, any length); generated workloads
	// are materialized.
	genStart := time.Now()
	var src workloads.Source
	if opt.loadTrace != "" {
		r, err := trace.OpenFile(opt.loadTrace)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		rs, err := r.Source()
		if err != nil {
			log.Fatal(err)
		}
		src = rs
	} else {
		tr, err := spec.Generate(cfg.NumUnits())
		if err != nil {
			log.Fatal(err)
		}
		if opt.saveTrace != "" {
			if err := trace.SaveFile(opt.saveTrace, tr); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("saved %s (%d accesses, %d streams) to %s\n",
				tr.Name, tr.TotalAccesses(), tr.Table.Len(), opt.saveTrace)
			return
		}
		src = tr.Source()
	}
	genDur := time.Since(genStart)

	var jsonl *telemetry.JSONLProbe
	if opt.traceSample > 0 {
		var w io.Writer = os.Stdout
		if opt.traceOut != "-" {
			f, err := os.Create(opt.traceOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		jsonl = telemetry.NewJSONL(w)
		cfg.AttachProbe(telemetry.Sampled(jsonl, opt.traceSample))
	}

	var rec *trace.Recorder
	var recFile *os.File
	if opt.record != "" {
		recCores := cfg.NumUnits()
		if cfg.Design == system.Host {
			recCores = cfg.HostCores
		}
		f, err := os.Create(opt.record)
		if err != nil {
			log.Fatal(err)
		}
		recFile = f
		// The recorded header carries the workload's stream table, which
		// the run leaves as it found it: a replay starts from the same
		// configured streams.
		w, err := trace.NewWriter(f, trace.Options{
			Name: src.Name(), Table: src.Table(), Cores: recCores, Compress: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		rec = trace.NewRecorder(w)
		cfg.AttachProbe(rec)
	}

	ctx := context.Background()
	if opt.maxWall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.maxWall)
		defer cancel()
	}
	simStart := time.Now()
	res, err := system.RunContext(ctx, cfg, src)
	if err != nil && (res == nil || !errors.Is(err, context.DeadlineExceeded)) {
		log.Fatal(err)
	}
	simDur := time.Since(simStart)
	if rec != nil {
		if err := rec.Close(); err != nil {
			log.Fatalf("record: %v", err)
		}
		if err := recFile.Close(); err != nil {
			log.Fatalf("record: %v", err)
		}
	}
	if opt.jsonOut {
		// The same canonical document the serving layer caches and
		// returns from GET /v1/jobs/{id}/result: scripts can diff
		// ndpsim output against served results byte for byte.
		doc, err := result.Encode(res)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(doc, '\n'))
		if jsonl != nil {
			if err := jsonl.Flush(); err != nil {
				log.Fatalf("trace: %v", err)
			}
		}
		return
	}
	if jsonl != nil {
		if res.Truncated {
			jsonl.Note(struct {
				Truncated bool   `json:"truncated"`
				Reason    string `json:"reason"`
			}{true, res.TruncateReason})
		}
		if err := jsonl.Flush(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}

	fmt.Printf("workload      %s (%d accesses, %d streams; loaded in %v)\n",
		src.Name(), res.Accesses, src.Table().Len(), genDur.Round(time.Millisecond))
	fmt.Printf("design        %v on %s (%d units; simulated in %v)\n",
		res.Design, cfg.Mem.Name, cfg.NumUnits(), simDur.Round(time.Millisecond))
	fmt.Printf("makespan      %v\n", res.Time)
	fmt.Printf("avg access    %.1f ns\n", res.Breakdown.AvgAccessNS())
	fmt.Printf("breakdown     %v\n", res.Breakdown)
	fmt.Printf("cache hits    %.1f%% (interconnect %.1f ns/access)\n",
		100*res.CacheHitRate(), res.AvgInterconnectNS())
	fmt.Printf("energy        %v\n", res.Energy)
	if res.Truncated {
		fmt.Printf("TRUNCATED     %s (partial results above)\n", res.TruncateReason)
	}
	if m := res.Metrics(); m != nil && !cfg.Faults.Empty() {
		fmt.Printf("faults        injected=%d retries=%d redirects=%d remapped=%d degraded-epochs=%d\n",
			m.Uint("fault.injected"), m.Uint("fault.retries"), m.Uint("fault.vault_redirects"),
			m.Uint("fault.remapped_streams"), m.Uint("fault.degraded_epochs"))
	}
	if res.AdaptArm != "" {
		m := res.Metrics()
		fmt.Printf("adaptive      arm=%s switches=%d modeled-amat=%.1f ns migrated-rows=%d\n",
			res.AdaptArm, res.AdaptSwitches,
			m.Float("adapt.modeled_amat_ns"), m.Uint("adapt.migrated_rows"))
	}
	if rec != nil {
		fmt.Printf("recorded      %d accesses to %s\n", res.Accesses, opt.record)
	}
	if opt.verbose {
		fmt.Printf("L1 hits       %d / %d\n", res.L1Hits, res.Accesses)
		fmt.Printf("meta hit rate %.2f   slb hit rate %.2f\n", res.MetaHitRate, res.SLBHitRate)
		fmt.Printf("reconfigs     %d (kept %d, dropped %d)\n", res.Reconfigs, res.ReconfigKept, res.ReconfigDropped)
		fmt.Printf("exceptions    %d\n", res.Exceptions)
		fmt.Printf("replicated    %d / %d rows\n", res.ReplicatedRows, res.RowsAllocated)
		fmt.Printf("sampler cover %d streams\n", res.SamplerCovered)
		for _, sr := range res.StreamReports() {
			mr := 0.0
			if t := sr.Hits + sr.Misses; t > 0 {
				mr = float64(sr.Misses) / float64(t)
			}
			fmt.Printf("  stream %3d %-8s ro=%-5v size=%-8d knee=%-8d rows=%-5d groups=%-2d acc=%-8d missrate=%.2f\n",
				sr.SID, sr.Type, sr.ReadOnly, sr.Bytes, sr.KneeBytes, sr.Rows, sr.Groups, sr.Hits+sr.Misses, mr)
		}
	}
}
