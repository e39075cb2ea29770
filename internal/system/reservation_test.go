package system

import (
	"context"
	"testing"

	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// maxLive is the most reservations any one contended resource of the
// run holds: NoC links, the CXL device and every unit's DRAM.
func (s *ndpSim) maxLive() int {
	m := max(s.net.MaxLive(), s.ext.MaxLive())
	for _, d := range s.devs {
		m = max(m, d.MaxLive())
	}
	return m
}

// liveBound caps the reservations one resource may hold at any point of
// the run below. The clock keeps only reservations that end after the
// current event, so a resource holds about one per access in flight,
// and each of the 128 cores has one: the measured peak is 124, checked
// after every access, against thousands per resource when history was
// kept for a fixed window.
const liveBound = 160

// TestLiveReservationsStayBounded runs pr on the default 128-unit
// machine at 4000 accesses per core and checks the largest live window
// of every resource after every 16th access and at the end.
func TestLiveReservationsStayBounded(t *testing.T) {
	cfg := DefaultConfig(NDPExt)
	gen, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 4000
	tr, err := gen(cfg.NumUnits(), 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	var s *ndpSim
	peak := 0
	cfg.Probe = telemetry.Sampled(telemetry.FuncProbe(func(*telemetry.Event) {
		peak = max(peak, s.maxLive())
	}), 16)
	if s, err = newNDPSim(cfg, tr.Source()); err != nil {
		t.Fatal(err)
	}
	if err := s.run(context.Background(), tr.Source(), false); err != nil {
		t.Fatal(err)
	}
	peak = max(peak, s.maxLive())
	t.Logf("peak live reservations on one resource: %d", peak)
	if peak > liveBound {
		t.Fatalf("a resource held %d live reservations, bound %d", peak, liveBound)
	}
}
