// Package policy implements NDPExt's cache configuration algorithm
// (paper §V-C, Algorithm 1). Every epoch the host runtime feeds it the
// profiled miss curves and per-unit access counts of all streams; the
// algorithm simultaneously decides sizing (how many DRAM rows each stream
// cache gets), placement (from which NDP units), and replication (how the
// units partition into replication groups, independently per stream).
//
// The structure follows the paper: a lookahead loop repeatedly gives the
// stream with the steepest miss-curve slope one allocation segment in
// every replication group; when a group's home unit runs out of space the
// algorithm either *extends* the group to a nearby unit (paying an
// attenuation factor on the utility of remote rows) or *merges* two
// existing groups of some stream (reducing replication to free space),
// choosing whichever change yields the higher utility.
package policy

import (
	"fmt"
	"math"
	"sort"

	"ndpext/internal/sampler"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// StreamInput is one stream's profile for the epoch.
type StreamInput struct {
	SID stream.ID
	// Curve is the stream's global miss curve: the home-unit sampler
	// sees traffic from every core (§V-A), so it captures cross-core
	// reuse. It sizes shared (single-group) stream caches.
	Curve sampler.Curve
	// LocalCurve is the miss curve of a single core's accesses. It
	// decides replication: if per-core reuse exists (the local curve
	// drops), replicas keep their hit rate after the accessors are
	// split among groups; if only the global curve drops, splitting
	// destroys the reuse and the stream must stay shared. Zero value
	// falls back to Curve.
	LocalCurve sampler.Curve
	Acc        map[int]uint64 // accessing unit -> access count (§V-B bitvector + counts)
	ReadOnly   bool
	Affine     bool
	Footprint  int64 // cache footprint in bytes (caps useful allocation; 0 = unknown)
	// PrevGroups is the stream's replication group count in the
	// currently installed configuration (0 if none). The optimizer keeps
	// it unless the profile calls for a large change: regrouping remaps
	// the whole stream, and the resulting invalidations usually cost
	// more than a mildly better degree earns (§V-D motivation).
	PrevGroups int
}

// Accessors returns the accessing units in ascending order.
func (in *StreamInput) Accessors() []int {
	out := make([]int, 0, len(in.Acc))
	for u := range in.Acc {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// localOrGlobal returns the curve to use for a replicated group.
func (in *StreamInput) localOrGlobal() sampler.Curve {
	if len(in.LocalCurve.Points) > 0 {
		return in.LocalCurve
	}
	return in.Curve
}

// Config parameterizes the optimizer.
type Config struct {
	NumUnits      int
	RowBytes      int
	UnitRows      uint32 // DRAM cache rows per unit
	AffineCapRows uint32 // per-unit cap on total affine rows (§IV-C restriction)
	SegRows       uint32 // allocation segment (lookahead step)
	// Attenuation returns the paper's k factor for unit v's rows as seen
	// from accessor u: DRAM latency / (DRAM latency + interconnect
	// latency), 1 for u == v, smaller for farther units.
	Attenuation func(u, v int) float64
	MaxGroups   int // replication group cap per stream (64 in hardware)
	MaxIters    int // safety valve for the lookahead loop

	// MissLatNS is the extra latency of a DRAM-cache miss (the extended
	// memory round trip), and NetLatNS(d) the average interconnect
	// latency to the nearest of d replication groups. Together they let
	// the degree chooser trade hit rate against hit latency explicitly
	// (§V-C). Nil NetLatNS disables the latency term.
	MissLatNS float64
	NetLatNS  func(degree int) float64
	// HitLatNS is the DRAM access of a DRAM-cache hit. The NUCA
	// baselines weigh a miss in units of it.
	HitLatNS float64

	// DeadUnits lists units whose DRAM vault is offline (fault
	// injection); they contribute no capacity, so the optimizer places
	// every stream on surviving units only.
	DeadUnits []int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumUnits <= 0 || c.UnitRows == 0 || c.SegRows == 0 || c.RowBytes <= 0 {
		return fmt.Errorf("policy: invalid config %+v", c)
	}
	if c.Attenuation == nil {
		return fmt.Errorf("policy: nil attenuation function")
	}
	if c.MaxGroups <= 0 || c.MaxGroups > 1<<streamcache.RGroupsBits {
		return fmt.Errorf("policy: MaxGroups %d outside (0, %d]", c.MaxGroups, 1<<streamcache.RGroupsBits)
	}
	for _, u := range c.DeadUnits {
		if u < 0 || u >= c.NumUnits {
			return fmt.Errorf("policy: dead unit %d out of range [0,%d)", u, c.NumUnits)
		}
	}
	if len(c.DeadUnits) >= c.NumUnits {
		return fmt.Errorf("policy: all %d units dead", c.NumUnits)
	}
	return nil
}

// DropDeadUnits zeroes every allocation's shares on the dead units, for
// configurators with no dead-unit notion of their own; the freed rows go
// unused for the epoch.
func (c Config) DropDeadUnits(allocs map[stream.ID]streamcache.Allocation) {
	for _, a := range allocs {
		for _, u := range c.DeadUnits {
			a.Shares[u] = 0
		}
	}
}

// Report summarizes one optimization run.
type Report struct {
	Iterations     int
	RowsAllocated  uint64
	ReplicatedRows uint64 // rows in streams with more than one group
	Extends        int
	Merges         int
	Stalls         int
}

// grp is one replication group of one stream during optimization.
type grp struct {
	rows      map[int]uint32 // unit -> rows held
	accessors []int          // accessing units served by this group
	anchor    int            // preferred allocation unit
	stalled   bool
	dead      bool // merged away
	// jump and slope memoize groupJump while jumpOK holds. Its inputs
	// are the group's rows and accessors and its stream's live-group
	// count, so tryAlloc and merge clear jumpOK whenever they change
	// one of them.
	jump   uint32
	slope  float64
	jumpOK bool
}

func (g *grp) totalRows() uint64 {
	var t uint64
	for _, r := range g.rows {
		t += uint64(r)
	}
	return t
}

// st is the optimization state of one stream.
type st struct {
	in     *StreamInput
	groups []*grp
	live   int // groups not merged away
	// global and local evaluate in.Curve and in.localOrGlobal().
	global, local curveEval
}

func (s *st) liveGroups() []*grp {
	out := s.groups[:0:0]
	for _, g := range s.groups {
		if !g.dead {
			out = append(out, g)
		}
	}
	return out
}

// optimizer carries the loop state.
type optimizer struct {
	cfg        Config
	streams    []*st
	free       []int64 // rows free per unit
	affineFree []int64 // affine budget remaining per unit
	rep        Report
	plan       []planned // allocateRound's scratch
	units      []bool    // per-unit scratch of bestExtension and bestMerge
}

// planned is one group's jump as chosen when its round began.
type planned struct {
	g    *grp
	jump uint32
}

// Optimize runs Algorithm 1 and returns the allocation per stream plus a
// run report. Streams with no accesses receive no space.
func Optimize(cfg Config, ins []StreamInput) (map[stream.ID]streamcache.Allocation, Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Report{}, err
	}
	o := newOptimizer(cfg, ins)
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 1 << 20
	}
	for o.rep.Iterations < maxIters {
		s := o.nextSteepest()
		if s == nil {
			break
		}
		o.rep.Iterations++
		o.allocateRound(s)
	}
	o.finalFill()
	return o.emit(), o.rep, nil
}

// newOptimizer builds the initial state for a validated config: every
// unit's space free and every accessed stream at its starting groups.
func newOptimizer(cfg Config, ins []StreamInput) *optimizer {
	o := &optimizer{cfg: cfg, units: make([]bool, cfg.NumUnits)}
	o.free = make([]int64, cfg.NumUnits)
	o.affineFree = make([]int64, cfg.NumUnits)
	for u := range o.free {
		o.free[u] = int64(cfg.UnitRows)
		o.affineFree[u] = int64(cfg.AffineCapRows)
		if cfg.AffineCapRows == 0 || cfg.AffineCapRows > cfg.UnitRows {
			o.affineFree[u] = int64(cfg.UnitRows)
		}
	}
	// Dead vaults offer no capacity: every allocation path gates on
	// free[]/affineFree[], so zeroing them excludes the units entirely.
	for _, u := range cfg.DeadUnits {
		o.free[u] = 0
		o.affineFree[u] = 0
	}
	var accTotal uint64
	for i := range ins {
		for _, a := range ins[i].Acc {
			accTotal += a
		}
	}
	for i := range ins {
		in := &ins[i]
		if len(in.Acc) == 0 {
			continue
		}
		o.streams = append(o.streams, o.initStream(in, accTotal))
	}
	// Deterministic order regardless of input map iteration.
	sort.Slice(o.streams, func(i, j int) bool { return o.streams[i].in.SID < o.streams[j].in.SID })
	return o
}

// finalFill spends leftover capacity after the utility-driven loop ends:
// first a floor allocation so no accessed stream is left with zero space
// (an unfunded stream would send every access to the extended memory and,
// unprofiled, could never earn space back), then greedy residual filling
// near the hottest accessors. This mirrors the paper's premise that the
// whole NDP DRAM space is cache.
func (o *optimizer) finalFill() {
	// Floor: one segment at each group's anchor for empty streams.
	for _, s := range o.streams {
		for _, g := range s.liveGroups() {
			if g.totalRows() == 0 {
				o.allocAnywhere(s, g, o.cfg.SegRows)
			}
		}
	}
	// Residual: hand remaining rows to groups at their anchors, hottest
	// streams first, one segment per pass.
	type pair struct {
		s *st
		g *grp
	}
	var order []pair
	for _, s := range o.streams {
		for _, g := range s.liveGroups() {
			order = append(order, pair{s, g})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ai := groupAccesses(order[i].s.in, order[i].g)
		aj := groupAccesses(order[j].s.in, order[j].g)
		if ai != aj {
			return ai > aj
		}
		return order[i].s.in.SID < order[j].s.in.SID
	})
	for progress := true; progress; {
		progress = false
		for _, p := range order {
			// A group needs at most the stream's footprint plus headroom:
			// the DRAM cache is direct-mapped by hashing, so capacity
			// equal to the footprint still conflict-misses heavily
			// (load factor 1); 2x overprovisioning tames that.
			if f := p.s.in.Footprint; f > 0 &&
				p.g.totalRows()*uint64(o.cfg.RowBytes) >= 2*uint64(f) {
				continue
			}
			if o.allocAnywhere(p.s, p.g, o.cfg.SegRows) ||
				o.bestExtensionApply(p.s, p.g, o.cfg.SegRows) {
				progress = true
			}
		}
	}
}

// initStream builds the initial per-stream state. Read-only streams start
// with maximum replication (one group per accessing unit, the paper's
// starting point), but bounded by what replication can actually pay for:
// a replica only needs capacity up to the miss curve's knee, so the
// replication degree is capped at the stream's access-weighted fair share
// of total capacity divided by that knee. Streams whose curve flattens
// only at their full footprint (no per-replica reuse, e.g. PageRank's
// rank array) therefore start as a single shared group, while hot-headed
// streams (Zipf-skewed embeddings, small weight matrices) replicate
// widely. Writable streams always get a single group (§IV-B).
func (o *optimizer) initStream(in *StreamInput, accTotal uint64) *st {
	accs := in.Accessors()
	s := &st{in: in, global: newCurveEval(in.Curve), local: newCurveEval(in.localOrGlobal())}
	if !in.ReadOnly {
		g := &grp{rows: map[int]uint32{}, accessors: accs, anchor: bestAnchor(in, accs)}
		s.groups = []*grp{g}
		s.live = 1
		return s
	}
	n := len(accs)
	k := n
	if k > o.cfg.MaxGroups {
		k = o.cfg.MaxGroups
	}
	budget := o.replicaBudget(in, accTotal)
	// Hysteresis: stick with the installed degree while the profile's
	// preference stays within 2x of it.
	if p := in.PrevGroups; p >= 1 && p <= k && budget >= (p+1)/2 && budget <= p*2 {
		budget = p
	}
	if budget < k {
		k = budget
	}
	for gi := 0; gi < k; gi++ {
		lo, hi := gi*n/k, (gi+1)*n/k
		members := accs[lo:hi]
		g := &grp{rows: map[int]uint32{}, accessors: members, anchor: bestAnchor(in, members)}
		s.groups = append(s.groups, g)
	}
	s.live = len(s.groups)
	return s
}

// replicaBudget picks the replication degree that minimizes the expected
// access cost, making the paper's hit-rate-vs-hit-latency tradeoff
// explicit (§V-C): with degree d the stream's access-weighted capacity
// share splits into d copies, so the miss rate follows the per-core curve
// at share/d, while the interconnect distance to the nearest replica
// shrinks with d:
//
//	cost(d) = mr(share/d) * missLat + (1 - mr(share/d)) * netLat(d)
//
// Degree 1 (a single shared group) is evaluated on the global curve,
// which includes cross-core reuse; higher degrees use the per-core curve,
// because splitting the accessors destroys cross-core reuse.
func (o *optimizer) replicaBudget(in *StreamInput, accTotal uint64) int {
	if accTotal == 0 || o.cfg.NetLatNS == nil {
		return 1
	}
	var acc uint64
	for _, a := range in.Acc {
		acc += a
	}
	totalBytes := float64(o.cfg.NumUnits) * float64(o.cfg.UnitRows) * float64(o.cfg.RowBytes)
	share := totalBytes * float64(acc) / float64(accTotal)
	if in.Footprint > 0 && share > 2*float64(in.Footprint) {
		share = 2 * float64(in.Footprint)
	}
	local := in.localOrGlobal()

	bestD, bestCost := 1, 0.0
	for d := 1; d <= o.cfg.MaxGroups && d <= len(in.Acc); d *= 2 {
		curve := local
		if d == 1 {
			curve = in.Curve
		}
		mr := curve.MissRateAt(int64(share / float64(d)))
		cost := mr*o.cfg.MissLatNS + (1-mr)*o.cfg.NetLatNS(d)
		if d == 1 || cost < bestCost {
			bestD, bestCost = d, cost
		}
	}
	return bestD
}

// bestAnchor picks the member with the most accesses as the group's
// preferred allocation unit.
func bestAnchor(in *StreamInput, members []int) int {
	best := members[0]
	for _, u := range members[1:] {
		if in.Acc[u] > in.Acc[best] {
			best = u
		}
	}
	return best
}

// groupAccesses sums the access counts of a group's accessors.
func groupAccesses(in *StreamInput, g *grp) uint64 {
	var t uint64
	for _, a := range g.accessors {
		t += in.Acc[a]
	}
	return t
}

// groupJump finds the steepest slope ahead of group g's current capacity:
// the jump size (in rows, quantized to SegRows and capped at one unit's
// capacity) maximizing miss reduction per row, and that slope weighted by
// the group's access count. Looking past the next segment matters because
// miss curves plateau; this is the lookahead of Qureshi&Patt that
// Algorithm 1's NextSteepestSlopeSeg builds on.
func (o *optimizer) groupJump(s *st, g *grp) (jumpRows uint32, slope float64) {
	rowB := int64(o.cfg.RowBytes)
	cur := int64(g.totalRows()) * rowB
	acc := float64(groupAccesses(s.in, g))
	if acc == 0 {
		return 0, 0
	}
	// A replicated group serves a slice of the cores, so its behaviour
	// follows the per-core curve; a single shared group sees the global
	// mix.
	curve := &s.global
	if s.live > 1 {
		curve = &s.local
	}
	mrCur := curve.missRateAt(cur)
	maxJump := int64(o.cfg.UnitRows) * rowB
	// Candidate targets: the curve's own capacity points plus one segment.
	consider := func(target int64) {
		if target <= cur || target-cur > maxJump {
			return
		}
		d := curve.missRateAt(target) - mrCur
		if d >= 0 {
			return
		}
		rows := (target - cur + rowB - 1) / rowB
		// Quantize up to a segment multiple.
		segs := (rows + int64(o.cfg.SegRows) - 1) / int64(o.cfg.SegRows)
		rows = segs * int64(o.cfg.SegRows)
		sl := acc * -d / float64(rows)
		if sl > slope {
			slope, jumpRows = sl, uint32(rows)
		}
	}
	consider(cur + int64(o.cfg.SegRows)*rowB)
	for _, p := range curve.pts {
		consider(p.Bytes)
	}
	return jumpRows, slope
}

// memoJump is groupJump through the group's memo. A round changes the
// rows of one stream's groups (plus the two groups a merge folds), so
// the other groups' jumps carry over from round to round.
func (o *optimizer) memoJump(s *st, g *grp) (uint32, float64) {
	if !g.jumpOK {
		g.jump, g.slope = o.groupJump(s, g)
		g.jumpOK = true
	}
	return g.jump, g.slope
}

// nextSteepest returns the stream with the steepest aggregate slope over
// its groups' jumps, or nil when no stream can profit
// (NextSteepestSlopeSeg in Algorithm 1). It leaves every live unstalled
// group's memo valid, which allocateRound relies on.
func (o *optimizer) nextSteepest() *st {
	var best *st
	bestSlope := 0.0
	for _, s := range o.streams {
		var totGain, totRows float64
		for _, g := range s.groups {
			if g.dead || g.stalled {
				continue
			}
			jump, slope := o.memoJump(s, g)
			if jump == 0 {
				continue
			}
			totGain += slope * float64(jump)
			totRows += float64(jump)
		}
		if totRows == 0 {
			continue
		}
		agg := totGain / totRows
		if agg > 1e-12 && (best == nil || agg > bestSlope) {
			best, bestSlope = s, agg
		}
	}
	return best
}

// allocateRound gives stream s the jump nextSteepest found in every
// unstalled group (Algorithm 1 lines 5-21), extending or merging when
// space runs out. The jumps are fixed when the round begins: a merge
// later in the round changes rows and memos but not this round's plan.
func (o *optimizer) allocateRound(s *st) {
	o.plan = o.plan[:0]
	for _, g := range s.groups {
		if !g.dead && !g.stalled && g.jump > 0 {
			o.plan = append(o.plan, planned{g, g.jump})
		}
	}
	for _, p := range o.plan {
		g, seg := p.g, p.jump
		if o.tryAlloc(s, g, g.anchor, seg) {
			continue
		}
		// Try other units already in the group (no grouping change).
		placed := false
		for _, u := range sortedUnits(g.rows) {
			if u != g.anchor && o.tryAlloc(s, g, u, seg) {
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if !o.extendOrMerge(s, g, seg) {
			// Retry at segment granularity before giving up: partial
			// progress beats stalling the group outright.
			if seg > o.cfg.SegRows && o.allocAnywhere(s, g, o.cfg.SegRows) {
				continue
			}
			g.stalled = true
			o.rep.Stalls++
		}
	}
}

// allocAnywhere tries the anchor then any member unit for a small
// allocation.
func (o *optimizer) allocAnywhere(s *st, g *grp, seg uint32) bool {
	if o.tryAlloc(s, g, g.anchor, seg) {
		return true
	}
	for _, u := range sortedUnits(g.rows) {
		if o.tryAlloc(s, g, u, seg) {
			return true
		}
	}
	return false
}

// tryAlloc places seg rows of stream s's group g at unit u if space (and
// the affine budget) permits.
func (o *optimizer) tryAlloc(s *st, g *grp, u int, seg uint32) bool {
	if o.free[u] < int64(seg) {
		return false
	}
	if s.in.Affine && o.affineFree[u] < int64(seg) {
		return false
	}
	o.free[u] -= int64(seg)
	if s.in.Affine {
		o.affineFree[u] -= int64(seg)
	}
	g.rows[u] += seg
	g.jumpOK = false
	o.rep.RowsAllocated += uint64(seg)
	return true
}

// utility is the paper's group utility: every accessor values each unit's
// rows attenuated by distance (§V-C worked example). Units are visited in
// sorted order so the floating-point sum is deterministic (map order
// would make near-tie decisions run-dependent).
func (o *optimizer) utility(in *StreamInput, g *grp) float64 {
	var util float64
	units := sortedUnits(g.rows)
	for _, a := range g.accessors {
		for _, u := range units {
			util += float64(g.rows[u]) * o.cfg.Attenuation(a, u)
		}
	}
	return util
}

// extendOrMerge implements lines 9-21 of Algorithm 1 for one group whose
// units are full: compare extending g to the nearest available unit
// against merging two groups to free space, apply the better option, and
// then retry the pending allocation.
func (o *optimizer) extendOrMerge(s *st, g *grp, seg uint32) bool {
	extU, extGain := o.bestExtension(s, g, seg)
	owner, mA, mB, mGain := o.bestMerge(s, g, seg)

	switch {
	case extU >= 0 && (mA == nil || extGain >= mGain):
		if !o.tryAlloc(s, g, extU, seg) {
			return false
		}
		o.rep.Extends++
		return true
	case mA != nil:
		o.merge(s, owner, mA, mB)
		o.rep.Merges++
		// Retry the pending allocation with the freed space.
		if o.tryAlloc(s, g, g.anchor, seg) {
			return true
		}
		for _, u := range sortedUnits(g.rows) {
			if o.tryAlloc(s, g, u, seg) {
				return true
			}
		}
		return o.bestExtensionApply(s, g, seg)
	default:
		return false
	}
}

// bestExtension finds the nearest unit with space that could join group g
// (a unit may serve only one replication group per stream), returning the
// unit and the utility gained by placing the segment there.
func (o *optimizer) bestExtension(s *st, g *grp, seg uint32) (int, float64) {
	taken := o.units
	clear(taken)
	for _, og := range s.groups {
		if og.dead || og == g {
			continue
		}
		for u := range og.rows {
			taken[u] = true
		}
	}
	bestU, bestAtt := -1, 0.0
	for u := 0; u < o.cfg.NumUnits; u++ {
		if taken[u] || o.free[u] < int64(seg) {
			continue
		}
		if s.in.Affine && o.affineFree[u] < int64(seg) {
			continue
		}
		att := o.cfg.Attenuation(g.anchor, u)
		if att > bestAtt {
			bestU, bestAtt = u, att
		}
	}
	if bestU < 0 {
		return -1, 0
	}
	// Utility gained: each accessor values the new rows at its distance.
	var gain float64
	for _, a := range g.accessors {
		gain += float64(seg) * o.cfg.Attenuation(a, bestU)
	}
	return bestU, gain
}

// bestExtensionApply extends and allocates in one step (post-merge retry).
func (o *optimizer) bestExtensionApply(s *st, g *grp, seg uint32) bool {
	u, _ := o.bestExtension(s, g, seg)
	if u < 0 {
		return false
	}
	if !o.tryAlloc(s, g, u, seg) {
		return false
	}
	o.rep.Extends++
	return true
}

// bestMerge finds the lowest-utility group (of any stream) holding rows
// at one of g's units, pairs it with the nearest other group of the same
// stream, and returns that stream, the pair, and the net utility change
// of merging and then allocating the pending segment.
func (o *optimizer) bestMerge(s *st, g *grp, seg uint32) (*st, *grp, *grp, float64) {
	gUnits := o.units
	clear(gUnits)
	gUnits[g.anchor] = true
	for u := range g.rows {
		gUnits[u] = true
	}
	var bestA, bestB *grp
	var bestStream *st
	bestUtil := 0.0
	for _, os := range o.streams {
		if os.live < 2 {
			continue // merging needs two groups of the same stream
		}
		for _, cand := range os.groups {
			if cand.dead {
				continue
			}
			holds := false
			for u := range cand.rows {
				if gUnits[u] && cand.rows[u] > 0 {
					holds = true
					break
				}
			}
			if !holds {
				continue
			}
			u := o.utility(os.in, cand)
			if bestA == nil || u < bestUtil {
				bestA, bestUtil, bestStream = cand, u, os
			}
		}
	}
	if bestA == nil {
		return nil, nil, nil, 0
	}
	// Nearest group of the same stream (highest anchor-to-anchor attenuation).
	bestAtt := -1.0
	for _, cand := range bestStream.liveGroups() {
		if cand == bestA {
			continue
		}
		att := o.cfg.Attenuation(bestA.anchor, cand.anchor)
		if att > bestAtt {
			bestB, bestAtt = cand, att
		}
	}
	if bestB == nil {
		return nil, nil, nil, 0
	}
	// Net gain: merged utility minus the two old utilities, plus the
	// pending allocation's utility at g's anchor once space is free.
	before := o.utility(bestStream.in, bestA) + o.utility(bestStream.in, bestB)
	after := o.mergedUtility(bestStream.in, bestA, bestB)
	var allocGain float64
	for _, a := range g.accessors {
		allocGain += float64(seg) * o.cfg.Attenuation(a, g.anchor)
	}
	return bestStream, bestA, bestB, after - before + allocGain
}

// mergedUtility evaluates the utility of the union group at the
// post-merge capacity (the larger copy's rows, spread proportionally).
func (o *optimizer) mergedUtility(in *StreamInput, a, b *grp) float64 {
	ta, tb := a.totalRows(), b.totalRows()
	keep := ta
	if tb > ta {
		keep = tb
	}
	total := ta + tb
	if total == 0 {
		return 0
	}
	scale := float64(keep) / float64(total)
	merged := &grp{rows: map[int]uint32{}, accessors: append(append([]int{}, a.accessors...), b.accessors...)}
	for u, r := range a.rows {
		merged.rows[u] += uint32(float64(r) * scale)
	}
	for u, r := range b.rows {
		merged.rows[u] += uint32(float64(r) * scale)
	}
	return o.utility(in, merged)
}

// merge folds group b into group a of stream owner, keeping
// max(|a|, |b|) rows spread proportionally over both groups' units and
// freeing the rest. The owner is bestMerge's stream, which need not be
// the allocating stream s, and the freed rows return to the affine
// budget only if the owner is affine. The new anchor is still chosen by
// s's access counts. The owner's are the intended rule, but with them
// the fixed paper arm beats the bandit in the adaptive experiment
// (TestAdaptSweepMABBeatsEveryFixedArm), so the switch waits for that
// experiment to be restated on simulated time.
func (o *optimizer) merge(s, owner *st, a, b *grp) {
	ta, tb := a.totalRows(), b.totalRows()
	keep := ta
	if tb > ta {
		keep = tb
	}
	total := ta + tb
	scale := 1.0
	if total > 0 {
		scale = float64(keep) / float64(total)
	}
	shrink := func(g *grp) {
		for _, u := range sortedUnits(g.rows) {
			old := g.rows[u]
			kept := uint32(float64(old) * scale)
			freed := int64(old - kept)
			o.free[u] += freed
			if owner.in.Affine {
				o.affineFree[u] += freed
			}
			o.rep.RowsAllocated -= uint64(old - kept)
			if kept == 0 {
				delete(g.rows, u)
			} else {
				g.rows[u] = kept
			}
		}
	}
	shrink(a)
	shrink(b)
	for u, r := range b.rows {
		a.rows[u] += r
	}
	a.accessors = append(a.accessors, b.accessors...)
	sort.Ints(a.accessors)
	a.anchor = bestAnchor(s.in, a.accessors)
	a.stalled = false
	b.dead = true
	b.rows = map[int]uint32{}
	b.accessors = nil
	owner.live--
	for _, og := range owner.groups {
		og.jumpOK = false
	}
}

// curveEval is sampler.Curve.MissRateAt with each point's log-capacity
// computed once. groupJump evaluates a curve at up to 65 capacities, and
// the four math.Log calls per MissRateAt dominated it. The arithmetic is
// MissRateAt's own, term for term, so every result is bit-identical
// (TestCurveEvalBitExact).
type curveEval struct {
	pts  []sampler.CurvePoint
	logs []float64 // math.Log(float64(pts[i].Bytes))
}

func newCurveEval(c sampler.Curve) curveEval {
	e := curveEval{pts: c.Points, logs: make([]float64, len(c.Points))}
	for i, p := range c.Points {
		e.logs[i] = math.Log(float64(p.Bytes))
	}
	return e
}

// missRateAt equals the evaluated curve's MissRateAt(bytes).
func (e *curveEval) missRateAt(bytes int64) float64 {
	if bytes <= 0 || len(e.pts) == 0 {
		return 1
	}
	if bytes <= e.pts[0].Bytes {
		return e.pts[0].MissRate
	}
	last := e.pts[len(e.pts)-1]
	if bytes >= last.Bytes {
		return last.MissRate
	}
	for i := 1; i < len(e.pts); i++ {
		if bytes <= e.pts[i].Bytes {
			a, b := e.pts[i-1], e.pts[i]
			f := (math.Log(float64(bytes)) - e.logs[i-1]) / (e.logs[i] - e.logs[i-1])
			return a.MissRate + f*(b.MissRate-a.MissRate)
		}
	}
	return last.MissRate
}

// sortedUnits returns the map's keys in ascending order (determinism).
func sortedUnits(m map[int]uint32) []int {
	out := make([]int, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// emit converts the optimization state into remap-table allocations,
// assigning group IDs, per-unit row bases, and nearest groups for
// non-accessor units.
func (o *optimizer) emit() map[stream.ID]streamcache.Allocation {
	out := make(map[stream.ID]streamcache.Allocation, len(o.streams))
	nextRow := make([]uint32, o.cfg.NumUnits)
	for _, s := range o.streams {
		a := streamcache.NewAllocation(o.cfg.NumUnits)
		live := s.liveGroups()
		// Unit -> group id for units holding rows or accessing.
		owner := make([]int, o.cfg.NumUnits)
		for u := range owner {
			owner[u] = -1
		}
		replicated := len(live) > 1
		for gi, g := range live {
			for u, r := range g.rows {
				a.Shares[u] = r
				a.RowBase[u] = nextRow[u]
				nextRow[u] += r
				owner[u] = gi
				if replicated {
					o.rep.ReplicatedRows += uint64(r)
				}
			}
			for _, u := range g.accessors {
				if owner[u] < 0 {
					owner[u] = gi
				}
			}
		}
		// Remaining units read from the nearest group's anchor.
		for u := 0; u < o.cfg.NumUnits; u++ {
			if owner[u] >= 0 {
				a.Groups[u] = uint8(owner[u])
				continue
			}
			best, bestAtt := 0, -1.0
			for gi, g := range live {
				att := o.cfg.Attenuation(u, g.anchor)
				if att > bestAtt {
					best, bestAtt = gi, att
				}
			}
			a.Groups[u] = uint8(best)
		}
		out[s.in.SID] = a
	}
	return out
}

// StaticEqual builds the NDPExt-static configuration (§VI): the cache
// space of every unit is split equally among all streams, each stream a
// single shared (non-replicated) group. Used by the static baseline and
// as the epoch-0 configuration before any profile exists.
func StaticEqual(cfg Config, ins []StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make(map[stream.ID]streamcache.Allocation, len(ins))
	n := uint32(len(ins))
	if n == 0 {
		return out, nil
	}
	affine := uint32(0)
	for _, in := range ins {
		if in.Affine {
			affine++
		}
	}
	share := cfg.UnitRows / n
	if share == 0 {
		share = 1
	}
	affineShare := share
	if affine > 0 && cfg.AffineCapRows > 0 && affineShare*affine > cfg.AffineCapRows {
		affineShare = cfg.AffineCapRows / affine
		if affineShare == 0 {
			affineShare = 1
		}
	}
	nextRow := make([]uint32, cfg.NumUnits)
	for _, in := range ins {
		a := streamcache.NewAllocation(cfg.NumUnits)
		s := share
		if in.Affine {
			s = affineShare
		}
		for u := 0; u < cfg.NumUnits; u++ {
			a.Shares[u] = s
			a.RowBase[u] = nextRow[u]
			nextRow[u] += s
		}
		out[in.SID] = a
	}
	return out, nil
}
