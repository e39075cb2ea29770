package workloads

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"ndpext/internal/graph"
	"ndpext/internal/stream"
)

func TestAllThirteenWorkloadsPresent(t *testing.T) {
	want := []string{"bc", "backprop", "bfs", "cc", "gnn", "hotspot", "lavaMD",
		"lud", "mv", "pathfinder", "pr", "recsys", "tc", "phased"}
	if len(All) != 14 {
		t.Fatalf("have %d workloads, want the paper's 13 plus phased (%v)", len(All), Names())
	}
	for _, n := range want {
		if _, err := Get(n); err != nil {
			t.Fatalf("missing workload %s: %v", n, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown workload returned no error")
	}
}

// generateAll builds every workload at tiny scale once.
func generateAll(t *testing.T, cores int) map[string]*Trace {
	t.Helper()
	out := map[string]*Trace{}
	for _, name := range Names() {
		gen, _ := Get(name)
		tr, err := gen(cores, 42, TinyScale())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tr
	}
	return out
}

func TestTracesWellFormed(t *testing.T) {
	const cores = 16
	for name, tr := range generateAll(t, cores) {
		if len(tr.PerCore) != cores {
			t.Fatalf("%s: %d cores, want %d", name, len(tr.PerCore), cores)
		}
		if tr.TotalAccesses() == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if tr.Table.Len() == 0 {
			t.Fatalf("%s: no streams configured", name)
		}
		if tr.Table.Len() >= stream.MaxStreams {
			t.Fatalf("%s: %d streams exceed the 512 limit", name, tr.Table.Len())
		}
		// Paper §VI: stream counts range from 4 to 256.
		if tr.Table.Len() < 2 {
			t.Fatalf("%s: only %d streams", name, tr.Table.Len())
		}
	}
}

func TestStreamCoverage(t *testing.T) {
	// Paper §IV-A: over 99% of accesses are captured by streams. Our
	// traces are generated from stream-annotated structures, so every
	// access must fall in a stream.
	for name, tr := range generateAll(t, 8) {
		checked := 0
		for _, cs := range tr.PerCore {
			for _, a := range cs {
				if tr.Table.FindByAddr(a.Addr) == nil {
					t.Fatalf("%s: access %#x not in any stream", name, a.Addr)
				}
				checked++
				if checked > 5000 {
					break
				}
			}
		}
	}
}

func TestAffineAndIndirectMix(t *testing.T) {
	// The paper distinguishes affine from indirect streams; the graph and
	// recsys workloads must register both kinds.
	for _, name := range []string{"pr", "bfs", "cc", "bc", "recsys", "gnn", "lavaMD"} {
		gen, _ := Get(name)
		tr, err := gen(8, 1, TinyScale())
		if err != nil {
			t.Fatal(err)
		}
		var aff, ind int
		for _, s := range tr.Table.All() {
			if s.Type == stream.Affine {
				aff++
			} else {
				ind++
			}
		}
		if aff == 0 || ind == 0 {
			t.Fatalf("%s: affine=%d indirect=%d; want both kinds", name, aff, ind)
		}
	}
}

func TestReadOnlyAndWrittenStreamsExist(t *testing.T) {
	// Replication candidates (never-written streams) and written streams
	// must both exist in mv (the paper's replication example).
	gen, _ := Get("mv")
	tr, err := gen(8, 1, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	written := map[stream.ID]bool{}
	for _, cs := range tr.PerCore {
		for _, a := range cs {
			if a.Write {
				if s := tr.Table.FindByAddr(a.Addr); s != nil {
					written[s.SID] = true
				}
			}
		}
	}
	if len(written) == 0 {
		t.Fatal("mv never writes")
	}
	if len(written) == tr.Table.Len() {
		t.Fatal("mv writes every stream; the x vector must stay read-only")
	}
}

func TestBackpropPhases(t *testing.T) {
	// The weight matrix must be read-only in the first half of each
	// core's trace and written in the second (layerforward vs
	// adjustweights).
	gen, _ := Get("backprop")
	tr, err := gen(8, 1, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Find a weights stream: the largest affine stream.
	var weights *stream.Stream
	for _, s := range tr.Table.All() {
		if s.Type == stream.Affine && (weights == nil || s.Size > weights.Size) {
			weights = s
		}
	}
	cs := tr.PerCore[0]
	half := len(cs) / 2
	for i, a := range cs[:half] {
		if a.Write && weights.Contains(a.Addr) {
			t.Fatalf("weights written at position %d during layerforward", i)
		}
	}
	sawWrite := false
	for _, a := range cs[half:] {
		if a.Write && weights.Contains(a.Addr) {
			sawWrite = true
			break
		}
	}
	if !sawWrite {
		t.Fatal("adjustweights phase never writes the weights")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, name := range []string{"pr", "recsys", "hotspot"} {
		gen, _ := Get(name)
		a, err := gen(8, 7, TinyScale())
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(8, 7, TinyScale())
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalAccesses() != b.TotalAccesses() {
			t.Fatalf("%s: lengths differ %d vs %d", name, a.TotalAccesses(), b.TotalAccesses())
		}
		for c := range a.PerCore {
			for i := range a.PerCore[c] {
				if a.PerCore[c][i] != b.PerCore[c][i] {
					t.Fatalf("%s: access %d/%d differs", name, c, i)
				}
			}
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	sc := TinyScale()
	for name, gen := range All {
		tr, err := gen(8, 3, sc)
		if err != nil {
			t.Fatal(err)
		}
		for c, cs := range tr.PerCore {
			// Inner loops may overshoot by a handful of accesses at most.
			if len(cs) > sc.AccessesPerCore+64 {
				t.Fatalf("%s: core %d has %d accesses, budget %d", name, c, len(cs), sc.AccessesPerCore)
			}
		}
	}
}

func TestProcessesPartitionAddressSpace(t *testing.T) {
	// With 2 processes, the streams accessed by the first and second half
	// of the cores must not overlap (each process owns its copy, §VI).
	sc := TinyScale()
	sc.CoresPerProc = 4
	gen, _ := Get("pr")
	tr, err := gen(8, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	sidsOf := func(cores []int) map[stream.ID]bool {
		out := map[stream.ID]bool{}
		for _, c := range cores {
			for _, a := range tr.PerCore[c] {
				if s := tr.Table.FindByAddr(a.Addr); s != nil {
					out[s.SID] = true
				}
			}
		}
		return out
	}
	first := sidsOf([]int{0, 1, 2, 3})
	second := sidsOf([]int{4, 5, 6, 7})
	for sid := range first {
		if second[sid] {
			t.Fatalf("stream %d shared across processes", sid)
		}
	}
}

func TestClone(t *testing.T) {
	gen, _ := Get("mv")
	tr, err := gen(4, 1, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a stream's read-only bit as a simulation would.
	tr.Table.All()[0].ReadOnly = false
	cl := tr.Clone()
	if cl.TotalAccesses() != tr.TotalAccesses() {
		t.Fatal("clone lost accesses")
	}
	for _, s := range cl.Table.All() {
		if !s.ReadOnly {
			t.Fatal("clone did not reset read-only bits")
		}
	}
	if cl.Table.All()[0] == tr.Table.All()[0] {
		t.Fatal("clone shares stream objects")
	}
}

func TestLUDUsesReorderedAffine(t *testing.T) {
	gen, _ := Get("lud")
	tr, err := gen(4, 1, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Table.All() {
		if s.Type == stream.Affine && s.Order == stream.OrderYXZ {
			found = true
		}
	}
	if !found {
		t.Fatal("lud should register a column-ordered affine stream")
	}
}

// Statistical pattern checks: the generators must produce the access
// characteristics their kernels are known for, since those drive every
// caching result downstream.

func TestRecsysGathersAreSkewed(t *testing.T) {
	gen, _ := Get("recsys")
	tr, err := gen(8, 5, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Count per-element touches of the first indirect stream.
	var emb *stream.Stream
	for _, s := range tr.Table.All() {
		if s.Type == stream.Indirect {
			emb = s
			break
		}
	}
	counts := map[uint64]int{}
	total := 0
	for _, cs := range tr.PerCore {
		for _, a := range cs {
			if emb.Contains(a.Addr) {
				id, _ := emb.ElemID(a.Addr)
				counts[id]++
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no embedding gathers")
	}
	// Zipf skew: the hottest 10% of touched entries draw far more than
	// 10% of the traffic.
	var hist []int
	for _, c := range counts {
		hist = append(hist, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(hist)))
	head := 0
	for i := 0; i < len(hist)/10; i++ {
		head += hist[i]
	}
	if frac := float64(head) / float64(total); frac < 0.2 {
		t.Fatalf("hottest decile draws only %.2f of gathers; Zipf skew missing", frac)
	}
}

func TestHotspotSpatialLocality(t *testing.T) {
	gen, _ := Get("hotspot")
	tr, err := gen(8, 5, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive accesses on a core should frequently touch nearby
	// addresses (stencil sweeps): measure the fraction of successive
	// address deltas under 4 kB.
	near, total := 0, 0
	for _, cs := range tr.PerCore {
		for i := 1; i < len(cs); i++ {
			d := int64(cs[i].Addr) - int64(cs[i-1].Addr)
			if d < 0 {
				d = -d
			}
			if d < 4096 {
				near++
			}
			total++
		}
	}
	// Transitions between the temp/power/output grids are inherently far
	// (different streams); the within-grid stencil steps must keep a
	// solid fraction of transitions short.
	if frac := float64(near) / float64(total); frac < 0.35 {
		t.Fatalf("only %.2f of successive hotspot accesses are near; stencil locality missing", frac)
	}
}

func TestEdgesAreSequentialInPR(t *testing.T) {
	gen, _ := Get("pr")
	tr, err := gen(8, 5, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// The edge list must be scanned in nondecreasing order per core
	// within each iteration (affine streaming).
	var edges *stream.Stream
	for _, s := range tr.Table.All() {
		if s.Type == stream.Affine && (edges == nil || s.Size > edges.Size) {
			edges = s
		}
	}
	backward, total := 0, 0
	var last uint64
	have := false
	for _, a := range tr.PerCore[0] {
		if !edges.Contains(a.Addr) {
			continue
		}
		if have && a.Addr < last {
			backward++
		}
		last, have = a.Addr, true
		total++
	}
	if total == 0 {
		t.Skip("core 0 never touched the chosen edge stream (different process)")
	}
	// Iteration restarts rewind once each; anything more means the scan
	// is not sequential.
	if frac := float64(backward) / float64(total); frac > 0.05 {
		t.Fatalf("%.3f of edge accesses go backwards; edge list should stream", frac)
	}
}

func TestRMATGraphsMatchSerial(t *testing.T) {
	const np, seed, stride = 5, 9, 1000003
	got := rmatGraphs(np, 200, 4, seed, stride)
	for p, g := range got {
		want := graph.RMAT(8, 4, seed+uint64(p)*stride)
		if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Edges, want.Edges) {
			t.Fatalf("graph %d differs from the serially built one", p)
		}
	}
}

func TestRMATGraphsPanicInCaller(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an invalid graph size did not panic in the caller")
		}
	}()
	rmatGraphs(3, 1<<40, 2, 1, 1)
}

// TestGraphScaleBound checks the scale bound at its edge with the
// validation alone, then that every RMAT-backed generator fails with it
// before building anything.
func TestGraphScaleBound(t *testing.T) {
	largest := float64(1<<graph.MaxRMATScale) / graphVertices
	if err := (Scale{Mult: largest}).CheckGraphs(); err != nil {
		t.Fatalf("scale %g, graphs of 2^%d vertices, rejected: %v", largest, graph.MaxRMATScale, err)
	}
	over := Scale{Mult: largest * 1.001, AccessesPerCore: 100, CoresPerProc: 16}
	want := over.CheckGraphs()
	if want == nil {
		t.Fatalf("scale %g accepted", over.Mult)
	}
	for _, name := range []string{"pr", "bfs", "cc", "bc", "tc", "gnn", "phased"} {
		tr, err := All[name](128, 1, Scale{Mult: 1e5, AccessesPerCore: 100, CoresPerProc: 16})
		if err == nil || tr != nil {
			t.Errorf("%s at scale 1e5: trace %v, error %v; want an error", name, tr != nil, err)
		}
	}
	if tr, err := PageRank(128, 1, over); err == nil || !strings.Contains(err.Error(), "RMAT(29, 12)") {
		t.Errorf("pr at scale %g: trace %v, error %v; want %v", over.Mult, tr != nil, err, want)
	}
}

// TestStreamErrorsAreReturned: a stream the remap table cannot hold is
// the generator's error, not a panic. mv at scale 4000 is within the
// graph bound but its matrix passes 2^48 bytes; a builder that runs out
// of stream IDs fails the same way. Once failed, a build emits nothing.
func TestStreamErrorsAreReturned(t *testing.T) {
	tr, err := MV(16, 1, Scale{Mult: 4000, AccessesPerCore: 100, CoresPerProc: 16})
	if tr != nil || err == nil || !strings.Contains(err.Error(), "workloads mv: stream 1: base/size exceed 48-bit fields") {
		t.Fatalf("mv at scale 4000: trace %v, err %v", tr != nil, err)
	}
	b := newBuilder("many", 1, Scale{AccessesPerCore: 10})
	for i := 0; i < stream.MaxStreams; i++ {
		b.read(0, b.affine(1, 8), 0, 0)
	}
	if !b.full(0) {
		t.Fatal("a failed build still accepts accesses")
	}
	if _, err := b.trace(); err == nil || !strings.Contains(err.Error(), "workloads many: stream: sid 511 exceeds 9-bit limit") {
		t.Fatalf("stream IDs exhausted: err %v", err)
	}
}

// TestBuilderPanicsOnInvalidStream: the public Builder keeps its
// construction-time panic for a stream that cannot be registered.
func TestBuilderPanicsOnInvalidStream(t *testing.T) {
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "48-bit") {
			t.Fatalf("recovered %v, want the 48-bit field error", p)
		}
	}()
	NewBuilder("big", 1, 10).Affine(1<<46, 8)
}
