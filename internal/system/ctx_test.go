package system

import (
	"context"
	"errors"
	"testing"

	"ndpext/internal/telemetry"
)

// TestRunContextCancelMidRun cancels from an epoch-boundary hook and
// expects a partial, truncated result alongside ctx's error.
func TestRunContextCancelMidRun(t *testing.T) {
	tr := tinyTrace(t, "pr")
	full, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(NDPExt)
	var epochs int
	var lastSnap uint64
	cfg.OnEpoch = func(ei EpochInfo) {
		epochs++
		lastSnap = ei.Counters.Accesses
		cancel()
	}
	res, err := RunContext(ctx, cfg, tr.Source())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("RunContext returned no partial result on cancellation")
	}
	if !res.Truncated || res.TruncateReason != "canceled" {
		t.Fatalf("partial result not marked canceled: truncated=%v reason=%q",
			res.Truncated, res.TruncateReason)
	}
	if epochs == 0 {
		t.Fatal("OnEpoch hook never fired; cancellation untested")
	}
	if res.Accesses == 0 || res.Accesses >= full.Accesses {
		t.Fatalf("partial accesses = %d, want in (0, %d)", res.Accesses, full.Accesses)
	}
	// The boundary snapshot must be coherent with the final counters.
	if lastSnap == 0 || lastSnap > res.Accesses {
		t.Fatalf("epoch snapshot accesses = %d, final = %d", lastSnap, res.Accesses)
	}
}

// TestRunContextPreCanceled returns immediately with no result.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, smallConfig(NDPExt), tinyTrace(t, "pr").Source())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestRunContextRejectsBadInput: a nil Source is an error, not a panic.
func TestRunContextRejectsBadInput(t *testing.T) {
	if res, err := RunContext(context.Background(), smallConfig(NDPExt), nil); err == nil || res != nil {
		t.Fatalf("nil source: got (%v, %v), want an error", res, err)
	}
}

// TestRunContextCancelHost exercises the host baseline's check point.
func TestRunContextCancelHost(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := smallConfig(Host)
	tr := tinyTrace(t, "pr")
	// Cancel from a probe after a few thousand accesses so the amortized
	// n&1023 check point trips mid-run.
	var seen int
	cfg.Probe = telemetry.FuncProbe(func(*telemetry.Event) {
		if seen++; seen == 3000 {
			cancel()
		}
	})
	res, err := RunContext(ctx, cfg, tr.Source())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("host RunContext error = %v, want context.Canceled", err)
	}
	if res == nil || !res.Truncated || res.TruncateReason != "canceled" {
		t.Fatalf("host partial result = %+v", res)
	}
	if res.Accesses == 0 || res.Accesses >= uint64(tr.TotalAccesses()) {
		t.Fatalf("host partial accesses = %d of %d", res.Accesses, tr.TotalAccesses())
	}
}
