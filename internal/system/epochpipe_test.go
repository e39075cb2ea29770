package system

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ndpext/internal/workloads"
)

// runInline runs the trace with the epoch pipeline's work done inline on
// the event-loop thread: the single-threaded reference the worker
// goroutine must match.
func runInline(cfg Config, tr *workloads.Trace) (*Result, error) {
	return runContext(context.Background(), cfg, tr.Source(), true)
}

// serialVsPipelined runs the same config + trace (generated with the
// given seed) with the pipeline inline (serial) and on its worker
// goroutine, and fails on any externally visible divergence: the
// fingerprint (every Result field), the per-stream reports, and the full
// telemetry registry must all be byte-identical.
func serialVsPipelined(t *testing.T, cfg Config, workload string, seed uint64) {
	t.Helper()
	tr := tinyTraceSeed(t, workload, seed)
	serial, err := runInline(cfg, tr)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	if fp(serial) != fp(par) {
		t.Fatalf("fingerprint diverged:\nserial    %+v\npipelined %+v", fp(serial), fp(par))
	}
	if !reflect.DeepEqual(serial.StreamReports(), par.StreamReports()) {
		t.Fatalf("stream reports diverged:\nserial    %+v\npipelined %+v",
			serial.StreamReports(), par.StreamReports())
	}
	sm, _ := json.Marshal(serial.Metrics())
	pm, _ := json.Marshal(par.Metrics())
	if string(sm) != string(pm) {
		t.Fatalf("metrics registry diverged:\nserial    %s\npipelined %s", sm, pm)
	}
}

// Every NDP design must produce byte-identical results on the worker,
// including the designs that do not profile (they start no pipe, so both
// runs take the same path, but the entry point must still work).
func TestPipelinedMatchesSerialAllDesigns(t *testing.T) {
	for _, d := range NDPDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			serialVsPipelined(t, smallConfig(d), "pr", 42)
		})
	}
}

// Parity across contrasting access patterns for the main design.
func TestPipelinedMatchesSerialWorkloads(t *testing.T) {
	for _, w := range []string{"recsys", "gnn", "bfs", "backprop"} {
		t.Run(w, func(t *testing.T) {
			serialVsPipelined(t, smallConfig(NDPExt), w, 42)
		})
	}
}

// Fault injection exercises the degraded epoch boundary: dead vaults
// zero sampler capacity in the reassignment job and force remaps. The
// pipeline must carry those inputs to the worker unchanged.
func TestPipelinedMatchesSerialFaults(t *testing.T) {
	cfg := faultConfig(t, NDPExt,
		"vault-fail,unit=5,at=100us;cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=200us,dur=100us,factor=4")
	serialVsPipelined(t, cfg, "pr", 42)
}

// Property test: 20 seeded draws over design, workload, generation
// seed, epoch length, ConsistentHash and partial reconfiguration must
// all be byte-identical between the inline and worker runs.
func TestPipelinedMatchesSerialProperty(t *testing.T) {
	designs := NDPDesigns()
	names := []string{"pr", "recsys", "gnn", "bfs", "backprop", "mv"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		d := designs[rng.Intn(len(designs))]
		w := names[rng.Intn(len(names))]
		seed := uint64(rng.Int63n(1 << 30))
		cfg := smallConfig(d)
		cfg.EpochCycles = []int64{20_000, 50_000, 120_000}[rng.Intn(3)]
		cfg.ConsistentHash = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			cfg.Reconfig = ReconfigPartial
			cfg.PartialEpochs = 1 + rng.Intn(3)
		}
		t.Run(fmt.Sprintf("draw%02d/%v/%s/seed=%d", i, d, w, seed), func(t *testing.T) {
			serialVsPipelined(t, cfg, w, seed)
		})
	}
}

// The per-epoch info stream OnEpoch sees must match the inline run
// field for field.
func TestPipelinedOnEpochParity(t *testing.T) {
	tr := tinyTrace(t, "pr")
	collect := func(inline bool) []EpochInfo {
		var infos []EpochInfo
		cfg := smallConfig(NDPExt)
		cfg.OnEpoch = func(ei EpochInfo) { infos = append(infos, ei) }
		run := Run
		if inline {
			run = runInline
		}
		if _, err := run(cfg, tr); err != nil {
			t.Fatalf("inline=%v: %v", inline, err)
		}
		return infos
	}
	serial := collect(true)
	par := collect(false)
	if len(serial) == 0 {
		t.Fatal("no epochs observed")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("epoch info diverged:\nserial    %+v\npipelined %+v", serial, par)
	}
}

// Cancellation mid-run must drain the pipeline cleanly and flush the
// partial statistics (Truncated set, the context error returned).
func TestPipelinedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(NDPExt)
	cfg.OnEpoch = func(EpochInfo) { cancel() } // cancel mid-run, after the first boundary
	tr := tinyTrace(t, "pr")
	res, err := RunContext(ctx, cfg, tr.Source())
	if err == nil {
		t.Fatal("want context error")
	}
	if res == nil || !res.Truncated || res.TruncateReason != truncatedCanceled {
		t.Fatalf("partial result not marked canceled: %+v", res)
	}
}

// An expired deadline must likewise join the worker before finishStats
// reads the counters.
func TestPipelinedWatchdog(t *testing.T) {
	tr := tinyTrace(t, "pr")
	res, err := RunContext(expired(t), smallConfig(NDPExt), tr.Source())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if !res.Truncated || res.TruncateReason != truncatedWall {
		t.Fatalf("deadline did not truncate: %v %q", res.Truncated, res.TruncateReason)
	}
	if res.Accesses >= uint64(tr.TotalAccesses()) {
		t.Fatal("expired deadline still simulated the whole trace")
	}
}

// A panic inside worker-side code must surface on the caller's
// goroutine at the next join, with the worker on its goroutine or inline.
func TestPipePanicPropagates(t *testing.T) {
	for _, inline := range []bool{false, true} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			bank := newSamplerBank(2)
			cfg := smallConfig(NDPExt)
			p := newEpochPipe(bank, cfg.Sampler, inline)
			p.observe(99, 1, 0) // out-of-range unit: worker's apply will panic
			defer func() {
				if recover() == nil {
					t.Fatal("worker panic did not propagate")
				}
			}()
			p.harvest()
		})
	}
}

// With one P the event loop and the epoch worker take turns on it: the
// bounded hand-off channel must neither deadlock nor change a result, on
// the main design and on the degraded (fault) epoch boundary.
func TestPipelinedSingleP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serialVsPipelined(t, smallConfig(NDPExt), "recsys", 42)
	serialVsPipelined(t, faultConfig(t, NDPExt,
		"vault-fail,unit=5,at=100us;cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=200us,dur=100us,factor=4"), "pr", 42)
}
