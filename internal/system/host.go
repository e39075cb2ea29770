package system

import (
	"context"

	"ndpext/internal/cache"
	"ndpext/internal/dram"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// host is the non-NDP baseline of §VI past the L1s: a shared
// Jigsaw-style LLC (modelled as a shared set-associative cache with bank
// + routing latency) and DDR5 main memory.
type host struct {
	cfg   *Config
	clock sim.Clock
	tel   *telemetry.Counters
	llc   *cache.Cache
	// DDR5 main memory: same channel organization as the extended
	// memory, minus the CXL link.
	chans    []*dram.Device
	rowBytes uint64
}

// runHost simulates the Host design: Config.HostCores cores with private
// L1s in front of the host's LLC and DDR5. Traces generated for the NDP
// core count are folded onto the host cores (foldCores). Accounting
// flows through the same telemetry counters and event loop as the NDP
// designs.
func runHost(ctx context.Context, cfg Config, src workloads.Source) (*Result, error) {
	var tel telemetry.Counters
	l, err := newEventLoop(&cfg, cfg.HostCores, &tel)
	if err != nil {
		return nil, err
	}
	llc, err := cache.NewChecked(cfg.HostLLCBytes, cfg.L1LineBytes, cfg.HostLLCAssoc)
	if err != nil {
		return nil, err
	}
	h := &host{cfg: &cfg, clock: l.clock, tel: &tel, llc: llc,
		chans: make([]*dram.Device, cfg.CXL.Channels), rowBytes: uint64(dram.DDR5().RowBytes)}
	for i := range h.chans {
		h.chans[i] = dram.NewDevice(dram.DDR5(), cfg.CXL.BanksPerChannel)
		h.chans[i].SetClock(&l.now)
	}
	l.miss = h.miss
	res := &Result{Design: Host, Workload: src.Name()}
	err = l.run(ctx, foldCores(src, cfg.HostCores), res)
	st := llc.Stats()
	res.CacheHits, res.CacheMisses = st.Hits, st.Misses
	return res, err
}

// foldedSource folds a source's cores onto len(cur) host cores: host
// core hc plays the source cores congruent to hc mod len(cur), in core
// order, each to exhaustion. Accesses are pulled incrementally, so a
// streaming source replays with bounded memory.
type foldedSource struct {
	workloads.Source
	cores int   // the source's core count
	cur   []int // per host core: the source core it is playing
}

func foldCores(src workloads.Source, n int) *foldedSource {
	f := &foldedSource{Source: src, cores: src.Cores(), cur: make([]int, n)}
	for hc := range f.cur {
		f.cur[hc] = hc
	}
	return f
}

func (f *foldedSource) Cores() int { return len(f.cur) }

func (f *foldedSource) Next(hc int) (workloads.Access, bool) {
	for f.cur[hc] < f.cores {
		if a, ok := f.Source.Next(f.cur[hc]); ok {
			return a, true
		}
		f.cur[hc] += len(f.cur)
	}
	return workloads.Access{}, false
}

// miss serves an L1 miss: the shared LLC (bank latency + NUCA routing),
// then DDR5 on an LLC miss, with the LLC victim written back.
func (h *host) miss(t sim.Time, _ int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID) {
	l := t
	t += h.clock.Cycles(h.cfg.HostLLCLat + h.cfg.HostNoCLat)
	hit, victim, wb := h.llc.Access(a.Addr, a.Write)
	h.tel.Add(telemetry.LevelCacheDRAM, t-l)
	if hit {
		return t, telemetry.LevelCacheDRAM, stream.NoStream
	}
	e := t
	t = h.dram(t, a.Addr, false)
	h.tel.Add(telemetry.LevelExtended, t-e)
	if wb {
		h.dram(t, victim, true)
	}
	return t, telemetry.LevelExtended, stream.NoStream
}

// dram issues one line access to the DDR5 channel holding addr's row.
func (h *host) dram(t sim.Time, addr uint64, write bool) sim.Time {
	row := addr / h.rowBytes
	nch := uint64(len(h.chans))
	done, _ := h.chans[row%nch].Access(t, int64(row/nch), h.cfg.L1LineBytes, write)
	return done
}
