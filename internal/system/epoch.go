package system

import (
	"ndpext/internal/maxflow"
	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// allocationsClose reports whether replacing old with new is worth the
// reconfiguration invalidations. The optimizer's exact per-unit spreading
// is order-dependent and jitters between epochs even at a stable
// operating point, so the comparison looks at what actually matters for
// hit rate and latency: the replication group count and the total
// capacity. (Placement-only jitter is noise; genuine placement changes
// come with group or capacity changes.)
func allocationsClose(old, new streamcache.Allocation) bool {
	if len(old.Shares) != len(new.Shares) {
		return false
	}
	if len(old.GroupIDs()) != len(new.GroupIDs()) {
		return false
	}
	oldTotal, newTotal := old.TotalRows(), new.TotalRows()
	if oldTotal == 0 {
		return newTotal == 0
	}
	d := int64(oldTotal) - int64(newTotal)
	if d < 0 {
		d = -d
	}
	return float64(d)/float64(oldTotal) < 0.25
}

// onFailedUnits reports whether an allocation holds rows on any of the
// failed units.
func onFailedUnits(a streamcache.Allocation, failed []int) bool {
	for _, u := range failed {
		if u < len(a.Shares) && a.Shares[u] > 0 {
			return true
		}
	}
	return false
}

// damp removes from allocs every stream whose new allocation is close to
// its installed one: a near-identical allocation is not worth the
// invalidations its installation would cause (every moved row is a
// string of extended-memory refetches). A stream whose installed
// allocation holds rows on a failed vault is never damped — keeping it
// would strand the stream on failed hardware — and installing its
// rebuilt allocation counts as a fault remap; damp returns that count.
func (s *ndpSim) damp(allocs map[stream.ID]streamcache.Allocation, failed []int) (remapped int) {
	for sid, a := range allocs {
		old, had := s.ctl.Allocation(sid)
		if !had {
			continue
		}
		if onFailedUnits(old, failed) {
			remapped++
			continue
		}
		if allocationsClose(old, a) {
			delete(allocs, sid)
		}
	}
	return remapped
}

// policyConfig builds the Algorithm 1 configuration for this machine.
func (s *ndpSim) policyConfig() policy.Config {
	seg := s.cfg.UnitRows / 32
	if seg == 0 {
		seg = 1
	}
	return policy.Config{
		NumUnits:      s.cfg.NumUnits(),
		RowBytes:      s.cfg.rowBytes(),
		UnitRows:      s.cfg.UnitRows,
		AffineCapRows: uint32(s.cfg.Stream.AffineCapBytes / s.cfg.rowBytes()),
		SegRows:       seg,
		Attenuation:   func(u, v int) float64 { return s.att[u][v] },
		MaxGroups:     1 << streamcache.RGroupsBits,
		MaxIters:      200_000,
		MissLatNS:     s.ext.MinLatency(64).NS(),
		NetLatNS:      s.netLatForDegree,
		HitLatNS:      s.devs[0].RawLatency(false, 64).NS(),
	}
}

// netLatForDegree estimates the mean interconnect latency from a unit to
// the nearest of d replication groups, assuming groups cluster over
// contiguous unit ranges (spatially adjacent IDs). Memoized per degree.
func (s *ndpSim) netLatForDegree(d int) float64 {
	if d < 1 {
		d = 1
	}
	if v, ok := s.netLatMemo[d]; ok {
		return v
	}
	n := s.cfg.NumUnits()
	if d > n {
		d = n
	}
	var total float64
	for u := 0; u < n; u++ {
		best := -1.0
		for g := 0; g < d; g++ {
			center := (g*n/d + (g+1)*n/d) / 2
			lat := s.net.BaseLatency(u, center, 64).NS()
			if best < 0 || lat < best {
				best = lat
			}
		}
		total += best
	}
	v := total / float64(n)
	if s.netLatMemo == nil {
		s.netLatMemo = make(map[int]float64)
	}
	s.netLatMemo[d] = v
	return v
}

// allStreamInputs builds placeholder inputs for every configured stream
// (used at bootstrap, before any profile exists).
func (s *ndpSim) allStreamInputs() []policy.StreamInput {
	var ins []policy.StreamInput
	for _, st := range s.table.All() {
		ins = append(ins, policy.StreamInput{
			SID:      st.SID,
			Curve:    defaultCurve(st),
			Acc:      map[int]uint64{0: 1},
			ReadOnly: st.ReadOnly,
			Affine:   st.Type == stream.Affine,
		})
	}
	return ins
}

// defaultCurve is the optimistic prior used before a stream has been
// sampled: misses fall off as allocation approaches the stream's size.
func defaultCurve(st *stream.Stream) sampler.Curve {
	size := int64(st.Size)
	return sampler.Curve{
		ItemBytes: int(st.ElemSize),
		Accesses:  1,
		Points: []sampler.CurvePoint{
			{Bytes: size / 16, MissRate: 0.9, Sampled: 1},
			{Bytes: size / 4, MissRate: 0.5, Sampled: 1},
			{Bytes: size, MissRate: 0.1, Sampled: 1},
		},
	}
}

// bootstrap installs the epoch-0 configuration: equal static allocation
// for the stream-cache designs, equal interleaved partitions for the
// partitioned baselines, nothing for static interleave.
func (s *ndpSim) bootstrap() {
	allocs, err := s.initial()
	if err != nil {
		panic(err)
	}
	if _, err := s.ctl.Apply(allocs); err != nil {
		panic(err)
	}
}

// equalPartitions is the partitioned baselines' epoch-0 configuration:
// every stream gets an equal share of every unit.
func (s *ndpSim) equalPartitions() (map[stream.ID]streamcache.Allocation, error) {
	n := s.table.Len()
	if n == 0 {
		return nil, nil
	}
	share := s.cfg.UnitRows / uint32(n+1)
	if share == 0 {
		share = 1
	}
	allocs := make(map[stream.ID]streamcache.Allocation, n)
	next := make([]uint32, s.cfg.NumUnits())
	for _, st := range s.table.All() {
		a := streamcache.NewAllocation(s.cfg.NumUnits())
		for u := range a.Shares {
			a.Shares[u] = share
			a.RowBase[u] = next[u]
			next[u] += share
		}
		allocs[st.SID] = a
	}
	return allocs, nil
}

// optimize is NDPExt's configure step: Algorithm 1.
func (s *ndpSim) optimize(pcfg policy.Config, ins []policy.StreamInput) (epochConfig, error) {
	allocs, rep, err := policy.Optimize(pcfg, ins)
	if err != nil {
		return epochConfig{}, err
	}
	s.releaseDecayed(allocs)
	return epochConfig{allocs: allocs, rep: rep}, nil
}

// decide is NDPExt-MAB's configure step: the bandit picks which arm's
// allocation to install, scoring every candidate against this epoch's
// curves. It runs on the event-loop thread, never on the epoch worker —
// that is what keeps the pick sequence deterministic.
func (s *ndpSim) decide(pcfg policy.Config, ins []policy.StreamInput) (epochConfig, error) {
	live := make(map[stream.ID]streamcache.Allocation, len(ins))
	for i := range ins {
		if a, ok := s.ctl.Allocation(ins[i].SID); ok {
			live[ins[i].SID] = a
		}
	}
	var epochAcc uint64
	for i := range s.streams {
		epochAcc += s.streams[i].acc
	}
	dec, err := s.adapt.Decide(pcfg, ins, live, epochAcc)
	if err != nil {
		return epochConfig{}, err
	}
	ec := epochConfig{allocs: dec.Allocs, arm: dec.Arm, switched: dec.Switched}
	// Report the installed arm's allocation footprint through the same
	// counters the paper optimizer fills.
	for _, a := range ec.allocs {
		t := a.TotalRows()
		ec.rep.RowsAllocated += t
		if len(a.GroupIDs()) > 1 {
			ec.rep.ReplicatedRows += t
		}
	}
	s.releaseDecayed(ec.allocs)
	return ec, nil
}

// releaseDecayed gives every stream that decayed out of the access
// history, and so out of the configuration inputs, an empty allocation:
// its space is freed explicitly, keeping the installed configuration's
// total within the physical capacity.
func (s *ndpSim) releaseDecayed(allocs map[stream.ID]streamcache.Allocation) {
	for _, st := range s.table.All() {
		if _, ok := allocs[st.SID]; ok {
			continue
		}
		if a, had := s.ctl.Allocation(st.SID); had && a.TotalRows() > 0 {
			allocs[st.SID] = streamcache.NewAllocation(s.cfg.NumUnits())
		}
	}
}

// startPipe installs the initial samplers and starts the epoch pipeline
// over them (inline: on the event-loop thread). The initial guess samples
// stream sid at unit sid mod N; the first epoch boundary replaces it with
// the max-flow assignment.
func (s *ndpSim) startPipe(inline bool) {
	bank := newSamplerBank(s.cfg.NumUnits())
	for _, st := range s.table.All() {
		u := int(st.SID) % s.cfg.NumUnits()
		bank.local[u][st.SID] = bank.get(s.cfg.Sampler, s.ctl.ItemBytes(st))
		bank.global[st.SID] = bank.get(s.cfg.Sampler, s.ctl.ItemBytes(st))
	}
	s.pipe = newEpochPipe(bank, s.cfg.Sampler, inline)
	s.deps.pipe = s.pipe
}

// profiles reports whether this design uses samplers and epochs at all.
func (s *ndpSim) profiles() bool {
	switch s.cfg.Design {
	case NDPExt, NDPExtMAB, Jigsaw, Whirlpool, Nexus:
		return true
	default:
		return false
	}
}

// shouldReconfig applies the Fig. 9(e) reconfiguration modes.
func (s *ndpSim) shouldReconfig() bool {
	if !s.profiles() {
		return false
	}
	switch s.cfg.Reconfig {
	case ReconfigFull:
		return true
	case ReconfigPartial:
		return s.epoch <= s.cfg.PartialEpochs
	default:
		return false
	}
}

// epochBoundary is the host runtime (§V): harvest the epoch's access
// bitvectors and sampler curves, derive and install the next
// configuration, and reassign samplers via max-flow. Under fault
// injection the boundary is also where degraded-mode reconfiguration
// happens: dead vaults are excluded from the optimizer and the sampler
// assignment, and streams stranded on them are force-remapped. at is the
// boundary's nominal time.
func (s *ndpSim) epochBoundary(at sim.Time) {
	s.epoch++
	// Degraded-mode telemetry: the boundary inspects fault state at its
	// nominal time, so a vault that died mid-epoch is seen here.
	var failed []int
	degraded := false
	if s.inj != nil {
		failed = s.inj.FailedUnits(at)
		degraded = len(failed) > 0 || s.inj.CXLBWFactor(at) > 1
		if degraded {
			s.tel.DegradedEpochs++
		}
	}
	if !s.profiles() {
		if s.cfg.OnEpoch != nil {
			s.cfg.OnEpoch(EpochInfo{Epoch: s.epoch, Degraded: degraded, FailedUnits: len(failed),
				Counters: s.tel.Snapshot(s.ctl.CacheCounts())})
		}
		return
	}
	// Fold the epoch's access bitvectors into every stream's exponentially
	// decayed history: the configuration covers all recently active
	// streams (not just this epoch's), so capacity accounting stays
	// globally consistent and phase changes (backprop) do not strand
	// streams without space.
	counts := s.ctl.EpochAccesses()
	for sid := range s.streams {
		s.streams[sid].fold(counts.Of(stream.ID(sid)))
	}

	// Harvest miss curves: the global sampler (home-set view, all
	// cores) drives sizing; the local sampler (one core) reveals whether
	// per-core reuse would survive replication. The epoch worker has, by
	// hand-off order, already applied every observation of the closing
	// epoch.
	rep := s.pipe.harvest()
	s.tel.Observes = rep.observes
	s.tel.SamplerCovered = rep.covered
	for _, h := range rep.global {
		r := &s.streams[h.sid]
		h.cv.Accesses = r.acc
		r.curve = h.cv
	}
	for _, h := range rep.local {
		r := &s.streams[h.sid]
		h.cv.Accesses = r.acc
		r.local = h.cv
	}

	// Build the configuration inputs from the decayed history (covers
	// every recently active stream).
	var ins []policy.StreamInput
	for sid := range s.streams {
		r := &s.streams[sid]
		if r.units == 0 {
			continue
		}
		cv := r.curve
		if len(cv.Points) == 0 {
			cv = defaultCurve(r.st)
		}
		acc := make(map[int]uint64, r.units)
		for u, w := range r.hist {
			if w > 0 {
				acc[u] = uint64(w)
			}
		}
		prevGroups := 0
		if a, ok := s.ctl.Allocation(r.st.SID); ok {
			prevGroups = len(a.GroupIDs())
		}
		ins = append(ins, policy.StreamInput{
			SID:        r.st.SID,
			Curve:      cv,
			LocalCurve: r.local,
			Acc:        acc,
			ReadOnly:   r.st.ReadOnly,
			Affine:     r.st.Type == stream.Affine,
			Footprint:  s.ctl.Footprint(r.st),
			PrevGroups: prevGroups,
		})
	}

	var dec epochConfig
	var rs streamcache.ReconfigStats
	remapped := 0
	reconfigured := s.shouldReconfig() && len(ins) > 0
	if reconfigured {
		s.tel.Reconfigs++
		pcfg := s.policyConfig()
		if s.inj != nil {
			// Dead vaults contribute no capacity, and a degraded CXL
			// link raises the real miss penalty the degree chooser
			// trades against.
			pcfg.DeadUnits = failed
			pcfg.MissLatNS *= s.inj.CXLBWFactor(at)
		}
		var err error
		if dec, err = s.configure(pcfg, ins); err != nil {
			panic(err)
		}
		remapped = s.damp(dec.allocs, failed)
		s.tel.FaultRemappedStreams += remapped
		if rs, err = s.ctl.Apply(dec.allocs); err != nil {
			panic(err)
		}
		if dec.switched {
			// Ground-truth migration cost of the arm switch: the items
			// the install actually invalidated.
			s.adapt.NoteApply(rs.ItemsDropped)
		}
		s.tel.ReconfigKept += rs.ItemsKept
		s.tel.ReconfigDropped += rs.ItemsDropped
		s.tel.ReplicatedRows = dec.rep.ReplicatedRows
		s.tel.RowsAllocated = dec.rep.RowsAllocated
	}

	// Reassign samplers with Edmonds-Karp max-flow (§V-B) using this
	// epoch's access bitvectors. If the previous epoch could not cover
	// every stream, last epoch's uncovered streams are assigned first
	// and the leftover sampler slots go to the rest (the multi-epoch
	// rotation of §V-B). The job's inputs are built here (they depend on
	// the injector and the stream table, both owned by the event-loop
	// thread); it runs on the epoch worker, overlapping the next epoch's
	// event loop.
	job := s.buildReassignJob(counts, failed)
	counts.Reset()
	s.pipe.reassign(job)

	if s.cfg.OnEpoch != nil {
		s.cfg.OnEpoch(EpochInfo{
			Epoch:           s.epoch,
			ActiveStreams:   len(job.sids),
			Reconfigured:    reconfigured,
			ItemsKept:       rs.ItemsKept,
			ItemsDropped:    rs.ItemsDropped,
			SamplerCovered:  rep.covered,
			Arm:             dec.arm,
			ArmSwitched:     dec.switched,
			Degraded:        degraded,
			FailedUnits:     len(failed),
			RemappedStreams: remapped,
			Counters:        s.tel.Snapshot(s.ctl.CacheCounts()),
		})
	}
}

// streamRecord is what the host runtime keeps of one stream across
// epochs; ndpSim.streams holds one per stream ID.
type streamRecord struct {
	st    *stream.Stream // nil when no stream has this ID
	hist  []float64      // decayed accesses by unit, 0 = absent; nil until accessed
	units int            // units present in hist
	acc   uint64         // accesses in the epoch last folded in
	// The latest global and per-core miss curves; no points = none yet.
	curve, local sampler.Curve
}

// fold halves the history, dropping weights below 0.5, and adds the
// epoch's access counts by unit.
func (r *streamRecord) fold(counts []uint64) {
	r.acc, r.units = 0, 0
	for _, n := range counts {
		r.acc += n
	}
	if r.hist == nil {
		if r.acc == 0 {
			return
		}
		r.hist = make([]float64, len(counts))
	}
	for u, n := range counts {
		w := r.hist[u] * 0.5
		if w < 0.5 {
			w = 0
		}
		w += float64(n)
		r.hist[u] = w
		if w > 0 {
			r.units++
		}
	}
}

// harvestedCurve is one sampler's extracted miss curve, tagged with the
// stream it was assigned to.
type harvestedCurve struct {
	sid stream.ID
	cv  sampler.Curve
}

// harvestCurves extracts the miss curve every installed sampler observed
// this epoch, in deterministic bank order (the global bank by ascending
// stream ID, then each unit's local bank). Samplers that saw no accesses
// or produced empty curves are skipped. It runs on the epoch worker.
func harvestCurves(b *samplerBank) (global, local []harvestedCurve) {
	for sid, smp := range b.global {
		if smp == nil || smp.Accesses() == 0 {
			continue
		}
		cv := smp.Curve()
		if len(cv.Points) == 0 {
			continue
		}
		global = append(global, harvestedCurve{stream.ID(sid), cv})
	}
	for _, row := range b.local {
		for sid, smp := range row {
			if smp == nil || smp.Accesses() == 0 {
				continue
			}
			cv := smp.Curve()
			if len(cv.Points) == 0 {
				continue
			}
			local = append(local, harvestedCurve{stream.ID(sid), cv})
		}
	}
	return global, local
}

// reassignJob is the immutable input of one epoch's sampler
// reassignment: which streams were accessed (ascending), from which
// units, at what sampler item granularity, and how many sampler slots
// each unit offers (zero on failed vaults). It is built on the
// event-loop thread — its inputs depend on the fault injector and the
// stream table, both owned there — and executed on the epoch worker.
type reassignJob struct {
	sids      []stream.ID
	unitsOf   [][]int
	itemBytes []int
	caps      []int
	scfg      sampler.Config
	numUnits  int
}

// buildReassignJob snapshots this epoch's access bitvectors and machine
// state into a reassignment job: the streams accessed this epoch, each
// with the units that accessed it, both ascending.
func (s *ndpSim) buildReassignJob(counts *streamcache.AccessCounts, failed []int) *reassignJob {
	j := &reassignJob{
		scfg:     s.cfg.Sampler,
		numUnits: s.cfg.NumUnits(),
	}
	for sid := range s.streams {
		r := &s.streams[sid]
		if r.acc == 0 {
			continue
		}
		var units []int
		for u, n := range counts.Of(r.st.SID) {
			if n > 0 {
				units = append(units, u)
			}
		}
		j.sids = append(j.sids, r.st.SID)
		j.unitsOf = append(j.unitsOf, units)
		j.itemBytes = append(j.itemBytes, s.ctl.ItemBytes(r.st))
	}
	j.caps = make([]int, j.numUnits)
	for u := range j.caps {
		j.caps[u] = s.cfg.Sampler.SamplersPerUnit
	}
	// Dead vaults host no samplers: the max-flow assignment runs over
	// surviving units only.
	for _, u := range failed {
		j.caps[u] = 0
	}
	return j
}

// run retires the bank and installs the next epoch's samplers via
// max-flow, honoring the §V-B rotation: streams the previous epoch could
// not cover are assigned first, then the leftover slots go to the rest.
// It returns the covered-stream count and the new uncovered set. The
// bank and the uncovered set belong to the epoch worker.
func (j *reassignJob) run(bank *samplerBank, uncovered map[stream.ID]bool) (int, map[stream.ID]bool) {
	bank.retire()
	install := func(u, i int) {
		sid := j.sids[i]
		bank.local[u][sid] = bank.get(j.scfg, j.itemBytes[i])
		bank.global[sid] = bank.get(j.scfg, j.itemBytes[i])
		j.caps[u]--
	}

	covered := 0
	if len(uncovered) > 0 {
		var prio []int
		for i, sid := range j.sids {
			if uncovered[sid] {
				prio = append(prio, i)
			}
		}
		accessedBy := make([][]int, len(prio))
		for k, i := range prio {
			accessedBy[k] = j.unitsOf[i]
		}
		first := maxflow.AssignSamplersCapacity(j.numUnits, accessedBy, j.caps)
		covered += first.Covered
		for u, list := range first.ByUnit {
			for _, si := range list {
				install(u, prio[si])
			}
		}
	}
	var rest []int
	for i, sid := range j.sids {
		if bank.global[sid] == nil {
			rest = append(rest, i)
		}
	}
	accessedBy := make([][]int, len(rest))
	for k, i := range rest {
		accessedBy[k] = j.unitsOf[i]
	}
	assign := maxflow.AssignSamplersCapacity(j.numUnits, accessedBy, j.caps)
	covered += assign.Covered
	for u, list := range assign.ByUnit {
		for _, si := range list {
			install(u, rest[si])
		}
	}
	next := make(map[stream.ID]bool)
	for _, si := range assign.Uncovered {
		next[j.sids[rest[si]]] = true
	}
	return covered, next
}
