package system

import (
	"context"
	"errors"
	"fmt"

	"ndpext/internal/adapt"
	"ndpext/internal/cxl"
	"ndpext/internal/dram"
	"ndpext/internal/energy"
	"ndpext/internal/fault"
	"ndpext/internal/noc"
	"ndpext/internal/nuca"
	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/sim"
	"ndpext/internal/stats"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// Result summarizes one simulation run. Its counters and breakdown are
// views computed from the run's telemetry once the event loop ends.
type Result struct {
	Design   Design
	Workload string

	Time     sim.Time // makespan across cores
	Accesses uint64
	L1Hits   uint64

	Breakdown stats.Breakdown

	CacheHits   uint64
	CacheMisses uint64

	Energy energy.Breakdown

	MetaHitRate float64 // baselines: metadata cache hit rate
	SLBHitRate  float64 // NDPExt: SLB hit rate

	Reconfigs       int
	ReconfigKept    int
	ReconfigDropped int
	Exceptions      uint64
	ReplicatedRows  uint64 // last epoch's replicated rows (NDPExt)
	RowsAllocated   uint64 // last epoch's total allocation (NDPExt)
	SamplerCovered  int    // streams covered by samplers, last epoch

	// NDPExt-MAB summary: the arm live at end of run and how many times
	// the bandit switched arms (zero values for every other design; the
	// full per-arm posteriors are in Metrics under "adapt.").
	AdaptArm      string
	AdaptSwitches int

	// Truncated is set when Config.MaxCycles or the run's context
	// stopped the run early; the counters then cover only the simulated
	// prefix. TruncateReason names which stop tripped.
	Truncated      bool
	TruncateReason string

	streams []StreamReport
	metrics *telemetry.Registry
}

// CacheHitRate returns the DRAM cache hit rate.
func (r *Result) CacheHitRate() float64 {
	t := r.CacheHits + r.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(t)
}

// MissRate returns the DRAM cache miss rate (requests served by the
// extended memory; Fig. 7's dot metric).
func (r *Result) MissRate() float64 {
	t := r.CacheHits + r.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(r.CacheMisses) / float64(t)
}

// AvgInterconnectNS is the mean interconnect time per access (Fig. 7).
func (r *Result) AvgInterconnectNS() float64 { return r.Breakdown.AvgInterconnectNS() }

// Metrics returns the run's full telemetry registry: every component's
// counters under dotted prefixes ("noc.", "cxl.", "dram.unit003.",
// "streamcache." / "nuca."). Nil for the Host design.
func (r *Result) Metrics() *telemetry.Registry { return r.metrics }

// StreamReport is one stream's end-of-run summary (diagnostics).
type StreamReport struct {
	SID       stream.ID
	Type      string
	ReadOnly  bool
	Bytes     uint64
	Hits      uint64
	Misses    uint64
	Rows      uint64 // allocated rows at end of run
	Groups    int
	KneeBytes int64
}

// StreamReports returns per-stream diagnostics after a run (empty for
// the Host design).
func (r *Result) StreamReports() []StreamReport { return r.streams }

// RunContext simulates the workload src feeds on the configured machine.
//
// The run copies src's stream table and flips only its own copy (the
// write exception clears a stream's read-only bit, §IV-B), so it never
// mutates its input: one trace may be simulated any number of times,
// including concurrently, each run through its own Trace.Source(). A
// Source is consumed by the run; open a fresh one per run.
//
// Designs that profile (NDPExt, NDPExt-MAB, Jigsaw, Whirlpool, Nexus)
// run their sampler and miss-curve bookkeeping on an epoch worker
// goroutine that overlaps the event-loop simulation of the next epoch
// (pipeline.go). Host, NDPExt-static and static interleave do not
// profile and start no worker.
//
// The context is the run's one wall-clock stop, checked cooperatively:
// once its deadline passes ("wall-clock limit exceeded") or it is
// canceled ("canceled"), the event loop stops at its next check point,
// flushes partial statistics with Truncated set, and the partial Result
// is returned ALONGSIDE context.Cause(ctx); a context canceled before
// the run returns no Result. Callers that only want clean aborts can
// ignore the Result on error; callers that checkpoint (the serving
// layer) use both. A source read error likewise surfaces alongside it.
func RunContext(ctx context.Context, cfg Config, src workloads.Source) (*Result, error) {
	return runContext(ctx, cfg, src, false)
}

// runContext is RunContext with a choice of where the epoch pipeline's
// work runs: on its worker goroutine, or, with inlineWorker set, on the
// event-loop thread as each message is sent (the tests' reference).
func runContext(ctx context.Context, cfg Config, src workloads.Source, inlineWorker bool) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("system: nil workload source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return nil, err
	}
	if cfg.Design == Host {
		return runHost(ctx, cfg, src)
	}
	if src.Cores() != cfg.NumUnits() {
		return nil, fmt.Errorf("system: workload %q has %d cores, machine has %d units",
			src.Name(), src.Cores(), cfg.NumUnits())
	}
	s, err := newNDPSim(cfg, src)
	if err != nil {
		return nil, err
	}
	return &s.res, s.run(ctx, src, inlineWorker)
}

// run simulates src on s until the event loop ends and fills s.res.
func (s *ndpSim) run(ctx context.Context, src workloads.Source, inlineWorker bool) error {
	s.bootstrap()
	if s.profiles() {
		s.startPipe(inlineWorker)
		// If the event loop panics (a simulator bug surfacing mid-run),
		// stop the worker so the panic-isolating callers (the ndpserve
		// scheduler) do not leak a goroutine per failed job. The normal
		// path clears s.pipe in finishStats.
		defer func() {
			if s.pipe != nil {
				s.pipe.abort()
			}
		}()
	}
	err := s.events.run(ctx, src, &s.res)
	s.finishStats()
	return err
}

// Run simulates the trace (RunContext without cancellation).
func Run(cfg Config, tr *workloads.Trace) (*Result, error) {
	return RunContext(context.Background(), cfg, tr.Source())
}

// RunSource simulates a streaming access source.
func RunSource(cfg Config, src workloads.Source) (*Result, error) {
	return RunContext(context.Background(), cfg, src)
}

// RunPipelined is Run.
//
// Deprecated: every profiling run uses the epoch pipeline; call Run.
func RunPipelined(cfg Config, tr *workloads.Trace) (*Result, error) {
	return Run(cfg, tr)
}

// RunSourcePipelined is RunSource.
//
// Deprecated: every profiling run uses the epoch pipeline; call
// RunSource.
func RunSourcePipelined(cfg Config, src workloads.Source) (*Result, error) {
	return RunSource(cfg, src)
}

// samplerBank holds the installed samplers densely indexed by stream ID
// (local: [unit][sid], global: [sid]). Stream IDs are at most 9 bits, so
// the slices replace two map lookups on the per-access path with plain
// indexing. Retired samplers go into a pool keyed by item granularity
// and are Reset-reused at the next epoch's reassignment, which removes
// the sampler rebuild (the simulator's largest allocation source) from
// every epoch boundary.
type samplerBank struct {
	local  [][]*sampler.Sampler // [unit][sid]
	global []*sampler.Sampler   // [sid]
	pool   map[int][]*sampler.Sampler
}

// samplerSIDs is the sampler index space: every representable stream ID
// plus one slot above it for the baselines' misc partition key
// (stream.ID(stream.MaxStreams)), which flows through observe like any
// other sid.
const samplerSIDs = stream.MaxStreams + 1

func newSamplerBank(units int) *samplerBank {
	b := &samplerBank{
		local:  make([][]*sampler.Sampler, units),
		global: make([]*sampler.Sampler, samplerSIDs),
		pool:   make(map[int][]*sampler.Sampler),
	}
	for u := range b.local {
		b.local[u] = make([]*sampler.Sampler, samplerSIDs)
	}
	return b
}

// get returns a pooled sampler for the granularity, or builds one.
func (b *samplerBank) get(cfg sampler.Config, itemBytes int) *sampler.Sampler {
	if free := b.pool[itemBytes]; len(free) > 0 {
		s := free[len(free)-1]
		b.pool[itemBytes] = free[:len(free)-1]
		return s
	}
	return sampler.New(cfg, itemBytes)
}

// retire resets every installed sampler into the pool and clears the
// assignment, ready for the next epoch's install calls.
func (b *samplerBank) retire() {
	for u := range b.local {
		row := b.local[u]
		for sid, s := range row {
			if s == nil {
				continue
			}
			s.Reset()
			b.pool[s.ItemBytes()] = append(b.pool[s.ItemBytes()], s)
			row[sid] = nil
		}
	}
	for sid, s := range b.global {
		if s == nil {
			continue
		}
		s.Reset()
		b.pool[s.ItemBytes()] = append(b.pool[s.ItemBytes()], s)
		b.global[sid] = nil
	}
}

// cacheController is the DRAM cache the host runtime configures: the
// stream cache of the NDPExt designs or the cacheline cache of the NUCA
// baselines. newNDPSim installs one; nothing after it asks which.
type cacheController interface {
	Allocation(sid stream.ID) (streamcache.Allocation, bool)
	Apply(allocs map[stream.ID]streamcache.Allocation) (streamcache.ReconfigStats, error)
	// EpochAccesses returns the live per-unit access counts by stream
	// (the §V-B bitvectors), which the epoch boundary reads and clears.
	EpochAccesses() *streamcache.AccessCounts
	StreamStatsFor(sid stream.ID) streamcache.StreamStats
	ReportTelemetry(r *telemetry.Registry)

	// ItemBytes is what one cached item of st occupies: the capacity
	// granularity of st's samplers.
	ItemBytes(st *stream.Stream) int
	// Footprint is the cache space a full copy of st occupies.
	Footprint(st *stream.Stream) int64
	// CacheCounts returns the DRAM-cache hits and misses.
	CacheCounts() (hits, misses uint64)
	// SRAMPJ returns the access energy of each of the controller's SRAM
	// structures, in the order the energy breakdown adds them.
	SRAMPJ() []float64
}

// epochConfig is one configure step's outcome: the allocations to
// install, the footprint counters the step reports, and, for
// NDPExt-MAB, the arm it chose and whether that switched arms.
type epochConfig struct {
	allocs   map[stream.ID]streamcache.Allocation
	rep      policy.Report
	arm      string
	switched bool
}

// ndpSim is the event-driven simulator for all NDP designs.
type ndpSim struct {
	cfg    Config
	table  *stream.Table // the run's own copy of the input's table
	events *eventLoop

	net  *noc.Network
	ext  *cxl.Device
	devs []*dram.Device
	inj  *fault.Injector // nil unless Config.Faults is non-empty

	// ctl is the design's DRAM cache; its memory path serves the event
	// loop's L1 misses. initial is its epoch-0 configuration and
	// configure the per-epoch solve (Algorithm 1, the bandit's pick, or
	// a NUCA baseline's configurator).
	ctl       cacheController
	initial   func() (map[stream.ID]streamcache.Allocation, error)
	configure func(pcfg policy.Config, ins []policy.StreamInput) (epochConfig, error)

	tel telemetry.Counters

	deps *pathDeps  // the serving path's wiring; startPipe hands it the pipe
	pipe *epochPipe // the epoch bookkeeping worker; nil for designs that do not profile

	adapt *adapt.Controller // non-nil for NDPExtMAB: the bandit configurator

	att [][]float64 // attenuation factors for the policy

	streams    []streamRecord  // by stream ID: access history and curves
	netLatMemo map[int]float64 // degree -> mean nearest-replica latency

	epoch int

	res Result
}

func newNDPSim(cfg Config, src workloads.Source) (*ndpSim, error) {
	n := cfg.NumUnits()
	net, err := noc.NewChecked(cfg.NoC)
	if err != nil {
		return nil, err
	}
	ext, err := cxl.NewChecked(cfg.CXL)
	if err != nil {
		return nil, err
	}
	s := &ndpSim{
		cfg:     cfg,
		table:   src.Table().Clone(),
		net:     net,
		ext:     ext,
		streams: make([]streamRecord, stream.MaxStreams),
	}
	for _, st := range s.table.All() {
		s.streams[st.SID].st = st
	}
	if s.events, err = newEventLoop(&s.cfg, n, &s.tel); err != nil {
		return nil, err
	}
	s.events.boundary = s.epochBoundary
	for i := 0; i < n; i++ {
		s.devs = append(s.devs, dram.NewDevice(cfg.Mem, cfg.BanksPerUnit))
	}
	s.net.SetClock(&s.events.now)
	s.ext.SetClock(&s.events.now)
	for _, d := range s.devs {
		d.SetClock(&s.events.now)
	}
	if !cfg.Faults.Empty() {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		s.inj = fault.New(cfg.Faults, seed)
		s.ext.SetFaults(s.inj)
		s.net.SetFaults(s.inj)
		for i, d := range s.devs {
			d.SetFaults(s.inj, i)
		}
	}
	deps := &pathDeps{
		cfg:   &s.cfg,
		clock: s.events.clock,
		net:   s.net,
		devs:  s.devs,
		ext:   s.ext,
		tel:   &s.tel,
		inj:   s.inj,
	}
	s.deps = deps
	switch cfg.Design {
	case NDPExt, NDPExtStatic, NDPExtMAB:
		sc := streamcache.NewController(cfg.Stream, n, s.table, cfg.ConsistentHash)
		s.ctl = sc
		s.events.miss = (&streamPath{pathDeps: deps, sc: sc}).Access
		s.initial = func() (map[stream.ID]streamcache.Allocation, error) {
			return policy.StaticEqual(s.policyConfig(), s.allStreamInputs())
		}
		s.configure = s.optimize
	case Jigsaw, Whirlpool, Nexus, StaticInterleave:
		np := nuca.DefaultParams()
		np.RowBytes = cfg.rowBytes()
		// The 128 kB metadata cache scales with every other capacity.
		np.MetaCacheBytes = max(np.MetaCacheBytes/CapacityDivisor, 8*np.MetaEntryBytes)
		kind := nucaKind(cfg.Design)
		nc := nuca.NewController(kind, np, n, cfg.UnitRows, s.table)
		s.ctl = nc
		s.events.miss = (&nucaPath{pathDeps: deps, nc: nc}).Access
		s.initial = s.equalPartitions
		if kind == nuca.StaticInterleave {
			// One interleaved partition caches everything.
			s.initial = func() (map[stream.ID]streamcache.Allocation, error) { return nil, nil }
		}
		s.configure = func(pcfg policy.Config, ins []policy.StreamInput) (epochConfig, error) {
			allocs, err := nuca.Configure(kind, pcfg, ins)
			return epochConfig{allocs: allocs}, err
		}
	default:
		return nil, fmt.Errorf("system: design %v not an NDP design", cfg.Design)
	}
	// Attenuation factors (§V-C): DRAM latency over DRAM+interconnect.
	dramNS := s.devs[0].RawLatency(false, 64).NS()
	s.att = make([][]float64, n)
	for u := 0; u < n; u++ {
		s.att[u] = make([]float64, n)
		for v := 0; v < n; v++ {
			s.att[u][v] = dramNS / (dramNS + s.net.BaseLatency(u, v, 64).NS())
		}
	}
	if cfg.Design == NDPExtMAB {
		bseed := cfg.BanditSeed
		if bseed == 0 {
			bseed = cfg.Seed
		}
		// The shadow evaluator's cost model uses the same latency
		// sources as the simulator itself (raw DRAM hit, extended-memory
		// minimum round trip, NoC base latency); the per-access energies
		// are modeled weights for the reward's tie-break term, not
		// simulated energy.
		model := adapt.CostModel{
			RowBytes:  cfg.rowBytes(),
			DramHitNS: dramNS,
			MissNS:    s.ext.MinLatency(64).NS(),
			NetNS:     func(u, v int) float64 { return s.net.BaseLatency(u, v, 64).NS() },
			HitPJ:     100,
			MissPJ:    1500,
		}
		ctl, err := adapt.New(cfg.Adapt, bseed, model)
		if err != nil {
			return nil, err
		}
		s.adapt = ctl
		s.configure = s.decide
	}
	s.res.Design = cfg.Design
	s.res.Workload = src.Name()
	return s, nil
}

func nucaKind(d Design) nuca.Kind {
	switch d {
	case Jigsaw:
		return nuca.Jigsaw
	case Whirlpool:
		return nuca.Whirlpool
	case Nexus:
		return nuca.Nexus
	default:
		return nuca.StaticInterleave
	}
}

// collectMetrics publishes every component's counters into one registry.
func (s *ndpSim) collectMetrics() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for i, d := range s.devs {
		d.ReportTelemetry(reg, fmt.Sprintf("dram.unit%03d", i))
	}
	s.ext.ReportTelemetry(reg, "cxl")
	s.net.ReportTelemetry(reg, "noc")
	s.ctl.ReportTelemetry(reg)
	if s.inj != nil {
		s.inj.ReportTelemetry(reg)
		reg.PutUint("fault.degraded_epochs", uint64(s.tel.DegradedEpochs))
		reg.PutUint("fault.remapped_streams", uint64(s.tel.FaultRemappedStreams))
	}
	if s.adapt != nil {
		s.adapt.ReportTelemetry(reg, "adapt")
	}
	return reg
}

// finishStats derives the rest of the Result after the event loop. It
// first joins the epoch worker: every observation still in flight is
// drained and the worker's authoritative counters adopted. Then it
// fills the hit-rate and energy summaries from the component registry.
func (s *ndpSim) finishStats() {
	if s.pipe != nil {
		// s.pipe is cleared first so the RunContext panic guard does
		// not double-close on a worker panic re-raised here.
		p := s.pipe
		s.pipe = nil
		rep := p.close()
		s.tel.Observes = rep.observes
		s.tel.SamplerCovered = rep.covered
	}
	r := &s.res
	tel := &s.tel
	reg := s.collectMetrics()
	r.metrics = reg

	r.Exceptions = tel.Exceptions
	r.Reconfigs = tel.Reconfigs
	r.ReconfigKept = tel.ReconfigKept
	r.ReconfigDropped = tel.ReconfigDropped
	r.ReplicatedRows = tel.ReplicatedRows
	r.RowsAllocated = tel.RowsAllocated
	r.SamplerCovered = tel.SamplerCovered
	if s.adapt != nil {
		r.AdaptArm = s.adapt.ActiveArm()
		r.AdaptSwitches = s.adapt.Switches()
	}

	// Each hit rate reads the counters of the controller that has the
	// structure (the SLB of the stream cache, the baselines' metadata
	// cache); the other design's rate stays 0.
	r.SLBHitRate = hitRate(reg, "streamcache.slb")
	r.MetaHitRate = hitRate(reg, "nuca.meta")
	// Energy (Fig. 6 breakdown), computed from the registry. Per-device
	// energies are summed in registration (device) order so the floating-
	// point result matches the pre-telemetry accumulation exactly.
	ndpDram := reg.SumFloat("dram.unit")
	staticMW := staticPowerMW(&s.cfg)
	// SRAM access energy (§VI: the paper models SLB/ATA/samplers with
	// CACTI; the baselines' metadata caches get the same treatment).
	var sram float64
	sram += float64(tel.Accesses) * energy.L1AccessPJ
	sram += float64(tel.Observes) * energy.SamplerUpdatePJ
	for _, pj := range s.ctl.SRAMPJ() {
		sram += pj
	}
	r.Energy = energy.Breakdown{
		StaticPJ:  energy.Static(staticMW, r.Time),
		NDPDramPJ: ndpDram,
		ExtDramPJ: reg.Float("cxl.dram.energy_pj"),
		NoCPJ:     reg.Float("noc.energy_pj"),
		CXLLinkPJ: reg.Float("cxl.link_energy_pj"),
		SRAMPJ:    sram,
	}
	r.CacheHits, r.CacheMisses = s.ctl.CacheCounts()

	for _, st := range s.table.All() {
		ss := s.ctl.StreamStatsFor(st.SID)
		sr := StreamReport{
			SID: st.SID, Type: st.Type.String(), ReadOnly: st.ReadOnly, Bytes: st.Size,
			Hits: ss.Hits, Misses: ss.Misses,
		}
		if cv := s.streams[st.SID].curve; len(cv.Points) > 0 {
			sr.KneeBytes = cv.Knee(0.05)
		}
		if a, ok := s.ctl.Allocation(st.SID); ok {
			sr.Rows = a.TotalRows()
			sr.Groups = len(a.GroupIDs())
		}
		r.streams = append(r.streams, sr)
	}
}

// hitRate is hits/(hits+misses) of the registry's "<prefix>_hits" and
// "<prefix>_misses" counters, or 0 when there were none.
func hitRate(reg *telemetry.Registry, prefix string) float64 {
	hits := reg.Uint(prefix + "_hits")
	t := hits + reg.Uint(prefix+"_misses")
	if t == 0 {
		return 0
	}
	return float64(hits) / float64(t)
}

// staticPowerMW is the machine's static power draw: every NDP unit's
// DRAM + core static power plus the extended memory's.
func staticPowerMW(cfg *Config) float64 {
	return float64(cfg.NumUnits())*(cfg.Mem.StaticMWPerU+cfg.CoreStaticMW) +
		float64(cfg.CXL.Channels)*cfg.CXL.DRAM.StaticMWPerU
}
