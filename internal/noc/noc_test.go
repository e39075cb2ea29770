package noc

import (
	"reflect"
	"testing"
	"testing/quick"

	"ndpext/internal/sim"
)

func small() Config {
	c := DefaultConfig()
	return c
}

func TestDefaultConfigTopology(t *testing.T) {
	c := DefaultConfig()
	if c.NumStacks() != 8 {
		t.Fatalf("stacks = %d, want 8 (4x2)", c.NumStacks())
	}
	if c.UnitsPerStack() != 16 {
		t.Fatalf("units/stack = %d, want 16 (4x4)", c.UnitsPerStack())
	}
	if c.NumUnits() != 128 {
		t.Fatalf("units = %d, want 128", c.NumUnits())
	}
	if c.IntraHopLat != sim.FromNS(1.5) || c.InterHopLat != sim.FromNS(10) {
		t.Fatalf("hop latencies %v/%v, want 1.5ns/10ns", c.IntraHopLat, c.InterHopLat)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.StacksX = 0
	if bad.Validate() == nil {
		t.Fatal("zero StacksX validated")
	}
	bad = DefaultConfig()
	bad.InterGBps = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth validated")
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config failed validation")
	}
}

func TestHopsSameUnit(t *testing.T) {
	n := New(small())
	if i, e := n.Hops(5, 5); i != 0 || e != 0 {
		t.Fatalf("self hops = %d/%d", i, e)
	}
}

func TestHopsSameStack(t *testing.T) {
	n := New(small())
	// Units 0 (0,0) and 15 (3,3) of stack 0: manhattan 6, no inter hops.
	intra, inter := n.Hops(0, 15)
	if intra != 6 || inter != 0 {
		t.Fatalf("hops(0,15) = %d/%d, want 6/0", intra, inter)
	}
}

func TestHopsAcrossStacks(t *testing.T) {
	n := New(small())
	// Unit 0 is (0,0) in stack 0 at stack-grid (0,0); unit 16 is (0,0) in
	// stack 1 at stack-grid (1,0). One inter hop; intra = exit distance
	// from (0,0) to +X edge (3 hops) + entry distance from -X edge to
	// (0,0) (0 hops).
	intra, inter := n.Hops(0, 16)
	if inter != 1 {
		t.Fatalf("inter hops = %d, want 1", inter)
	}
	if intra != 3 {
		t.Fatalf("intra hops = %d, want 3", intra)
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	n := New(small())
	f := func(a, b uint8) bool {
		u := int(a) % n.NumUnits()
		v := int(b) % n.NumUnits()
		i1, e1 := n.Hops(u, v)
		i2, e2 := n.Hops(v, u)
		// XY routing gives symmetric inter hops. Intra hops may differ
		// between the two directions (the exit/entry edges depend on the
		// XY leg order) but must stay within the mesh diameter.
		diam := n.cfg.UnitsX + n.cfg.UnitsY - 2
		return e1 == e2 && i1 >= 0 && i2 >= 0 && i1 <= 2*diam && i2 <= 2*diam
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteLatencyComposition(t *testing.T) {
	n := New(small())
	cfg := n.Config()
	tr := n.Route(0, 0, 15, 64) // same stack, 6 intra hops
	wantIntra := 6*cfg.IntraHopLat + sim.FromNS(64/cfg.IntraGBps)
	if tr.IntraDelay != wantIntra || tr.InterDelay != 0 {
		t.Fatalf("intra=%v inter=%v, want intra=%v inter=0", tr.IntraDelay, tr.InterDelay, wantIntra)
	}
	if tr.Arrive != wantIntra {
		t.Fatalf("arrive = %v, want %v", tr.Arrive, wantIntra)
	}
}

func TestRouteInterStackContention(t *testing.T) {
	n := New(small())
	// Two messages over the same inter-stack link back to back: the second
	// queues behind the first's serialization.
	tr1 := n.Route(0, 0, 16, 6400)
	tr2 := n.Route(0, 0, 16, 6400)
	if tr2.Arrive <= tr1.Arrive {
		t.Fatalf("second message (%v) did not queue behind first (%v)", tr2.Arrive, tr1.Arrive)
	}
	// Reverse direction has its own link: no queueing against forward traffic.
	n.Reset()
	n.Route(0, 0, 16, 6400)
	rev := n.Route(0, 16, 0, 6400)
	fwd2 := n.Route(0, 0, 16, 6400)
	if rev.InterDelay >= fwd2.InterDelay {
		t.Fatalf("reverse-direction message queued behind forward traffic (rev %v, queued fwd %v)", rev.InterDelay, fwd2.InterDelay)
	}
}

func TestRouteSelfIsFree(t *testing.T) {
	n := New(small())
	tr := n.Route(42, 7, 7, 64)
	if tr.Arrive != 42 || tr.EnergyPJ != 0 || tr.IntraHops != 0 || tr.InterHops != 0 {
		t.Fatalf("self route not free: %+v", tr)
	}
}

func TestRouteEnergyScalesWithHops(t *testing.T) {
	n := New(small())
	near := n.Route(0, 0, 1, 64) // 1 intra hop
	n.Reset()
	far := n.Route(0, 0, 127, 64) // many hops incl. inter
	if far.EnergyPJ <= near.EnergyPJ {
		t.Fatalf("far energy %v <= near energy %v", far.EnergyPJ, near.EnergyPJ)
	}
}

func TestBaseLatencyMatchesUnloadedRoute(t *testing.T) {
	n := New(small())
	for _, pair := range [][2]int{{0, 15}, {0, 16}, {3, 127}, {10, 10}} {
		want := n.BaseLatency(pair[0], pair[1], 64)
		got := n.Route(0, pair[0], pair[1], 64).Arrive
		if got != want {
			t.Fatalf("route(%d,%d) unloaded = %v, BaseLatency = %v", pair[0], pair[1], got, want)
		}
		n.Reset()
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := New(small())
	n.Route(0, 0, 16, 64)
	n.Route(0, 16, 0, 64)
	s := n.Stats()
	if s.Messages != 2 {
		t.Fatalf("messages = %d", s.Messages)
	}
	if s.InterHops != 2 {
		t.Fatalf("inter hops = %d, want 2", s.InterHops)
	}
	if s.EnergyPJ <= 0 {
		t.Fatal("no energy recorded")
	}
	n.Reset()
	if s2 := n.Stats(); s2.Messages != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestInterStackPathMultiHop(t *testing.T) {
	n := New(small())
	// Stack 0 (grid 0,0) to stack 7 (grid 3,1): 3 X hops + 1 Y hop = 4.
	u0 := 0
	u7 := 7 * 16
	_, inter := n.Hops(u0, u7)
	if inter != 4 {
		t.Fatalf("inter hops = %d, want 4", inter)
	}
	tr := n.Route(0, u0, u7, 64)
	if tr.InterHops != 4 {
		t.Fatalf("routed inter hops = %d, want 4", tr.InterHops)
	}
	if tr.InterDelay < 4*n.Config().InterHopLat {
		t.Fatalf("inter delay %v below 4 hop latencies", tr.InterDelay)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestRouteCXLUnloaded(t *testing.T) {
	n := New(small())
	cfg := n.Config()
	// Unit 0 is at (0,0): the controller-facing (-Y) edge is 0 hops away.
	tr := n.RouteCXL(0, 0, 64, true)
	want := cfg.InterHopLat + sim.FromNS(64/cfg.InterGBps)
	if tr.Arrive != want {
		t.Fatalf("edge unit to controller = %v, want %v", tr.Arrive, want)
	}
	if tr.InterHops != 1 {
		t.Fatalf("controller link hops = %d, want 1", tr.InterHops)
	}
	if tr.Arrive != n.BaseCXLLatency(0, 64) {
		t.Fatalf("unloaded RouteCXL %v != BaseCXLLatency %v", tr.Arrive, n.BaseCXLLatency(0, 64))
	}
	// A unit deeper in the mesh pays intra hops first.
	deep := 12 // (0,3) in stack 0: 3 hops to the -Y edge
	trDeep := n.RouteCXL(0, deep, 64, true)
	if trDeep.IntraHops != 3 {
		t.Fatalf("deep unit intra hops = %d, want 3", trDeep.IntraHops)
	}
	if trDeep.Arrive <= tr.Arrive {
		t.Fatal("deep unit should take longer to reach the controller")
	}
}

func TestRouteCXLPerStackLinksIndependent(t *testing.T) {
	n := New(small())
	// Saturate stack 0's controller link; stack 1 must be unaffected.
	for i := 0; i < 50; i++ {
		n.RouteCXL(0, 0, 4096, true)
	}
	loaded := n.RouteCXL(0, 0, 4096, true)
	other := n.RouteCXL(0, 16, 4096, true) // unit 16 = stack 1
	if other.InterDelay >= loaded.InterDelay {
		t.Fatalf("stack 1's controller link (%v) queued behind stack 0's (%v)",
			other.InterDelay, loaded.InterDelay)
	}
}

func TestRouteCXLDirectionsIndependent(t *testing.T) {
	n := New(small())
	for i := 0; i < 50; i++ {
		n.RouteCXL(0, 0, 4096, true) // toward the controller
	}
	back := n.RouteCXL(0, 0, 4096, false) // from the controller
	if back.InterDelay > n.Config().InterHopLat+sim.FromNS(4096/n.Config().InterGBps) {
		t.Fatalf("return direction queued behind forward traffic: %v", back.InterDelay)
	}
}

func TestRouteCXLEnergyCharged(t *testing.T) {
	n := New(small())
	tr := n.RouteCXL(0, 5, 128, true)
	if tr.EnergyPJ <= 0 {
		t.Fatal("no energy charged for controller route")
	}
	if n.Stats().EnergyPJ != tr.EnergyPJ {
		t.Fatal("stats energy disagrees with transit energy")
	}
	n.Reset()
	if n.Stats().Messages != 0 {
		t.Fatal("Reset did not clear CXL route stats")
	}
}

// Property: wormhole pipelining means a multi-hop unloaded transfer costs
// hops*hopLat + one serialization, never hops*(hopLat+ser).
func TestWormholePipelineProperty(t *testing.T) {
	n := New(small())
	f := func(a, b uint8, sz uint16) bool {
		u, v := int(a)%n.NumUnits(), int(b)%n.NumUnits()
		bytes := 1 + int(sz)%4096
		n.Reset()
		tr := n.Route(0, u, v, bytes)
		intra, inter := n.Hops(u, v)
		cfg := n.Config()
		upper := sim.Time(intra)*cfg.IntraHopLat + sim.Time(inter)*cfg.InterHopLat +
			sim.FromNS(float64(bytes)/cfg.IntraGBps) + sim.FromNS(float64(bytes)/cfg.InterGBps) +
			2*sim.Nanosecond // rounding slack
		return tr.Arrive <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The route table walks exactly the links of XY routing: for every
// stack pair of several grid shapes, the legs' hops are the (stack,
// direction) sequence of stepping X first, then Y, one hop at a time,
// and each hop reserves that stack's link in that direction.
func TestRouteTableMatchesXYWalk(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 1}, {1, 3}, {4, 2}, {3, 5}} {
		cfg := DefaultConfig()
		cfg.StacksX, cfg.StacksY, cfg.UnitsX, cfg.UnitsY = dims[0], dims[1], 1, 1
		n := New(cfg)
		for from := 0; from < n.NumUnits(); from++ {
			for to := 0; to < n.NumUnits(); to++ {
				var want [][2]int
				sx, sy, tx, ty := from%dims[0], from/dims[0], to%dims[0], to/dims[0]
				for sx != tx || sy != ty {
					d := dirOut(sx, sy, tx, ty)
					want = append(want, [2]int{sy*dims[0] + sx, d})
					sx += [4]int{1, -1, 0, 0}[d]
					sy += [4]int{0, 0, 1, -1}[d]
				}
				var got [][2]int
				xs, ys := n.legs(&n.loc[from], &n.loc[to])
				for _, leg := range [2][]hop{xs, ys} {
					for _, h := range leg {
						if h.link != &n.links[4*h.stack+h.dir] {
							t.Fatalf("%v: hop %+v reserves the wrong link", dims, h)
						}
						got = append(got, [2]int{int(h.stack), int(h.dir)})
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: route %d -> %d = %v, want %v", dims, from, to, got, want)
				}
			}
		}
	}
}
