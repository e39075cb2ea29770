package system

import (
	"ndpext/internal/cxl"
	"ndpext/internal/dram"
	"ndpext/internal/fault"
	"ndpext/internal/noc"
	"ndpext/internal/sim"
	"ndpext/internal/telemetry"
)

// pathDeps bundles the hardware and accounting shared by every memory
// path, and holds the part of the path below the design's metadata step:
// the NoC legs, the dead-vault check, the home-side DRAM cache access and
// the extended-memory fetch. The designs' paths differ only in how they
// resolve an access to a homeReq.
type pathDeps struct {
	cfg   *Config
	clock sim.Clock
	net   *noc.Network
	devs  []*dram.Device
	ext   *cxl.Device
	tel   *telemetry.Counters

	// pipe receives each stream access for the host runtime's
	// samplers; nil for designs that do not profile.
	pipe *epochPipe

	// inj, when non-nil, injects faults; paths consult it to redirect
	// accesses whose home vault is offline to extended memory.
	inj *fault.Injector
}

// charge attributes a transit's delays to the NoC levels and returns its
// arrival time.
func (p *pathDeps) charge(tr noc.Transit) sim.Time {
	p.tel.Add(telemetry.LevelIntraNoC, tr.IntraDelay)
	p.tel.Add(telemetry.LevelInterNoC, tr.InterDelay)
	return tr.Arrive
}

// route sends a message of the given size from unit `from` to unit `to`
// at time t and returns its arrival time.
func (p *pathDeps) route(t sim.Time, from, to, bytes int) sim.Time {
	return p.charge(p.net.Route(t, from, to, bytes))
}

// deadHome reports whether home's vault is offline at t (fault
// injection), recording the redirect to extended memory when it is. The
// metadata structures are logic-die SRAM and keep answering, so the
// caller's lookup and its hit/miss classification stand; the caller
// serves the access from extended memory and skips the fill, keeping the
// dead vault cold until the next reconfiguration remaps its streams.
func (p *pathDeps) deadHome(t sim.Time, home int) bool {
	if p.inj == nil || !p.devs[home].Offline(t) {
		return false
	}
	p.inj.RecordRedirect()
	return true
}

// extAccess performs one extended-memory access from the given unit: it
// routes to the central CXL controller over the stack's dedicated
// controller link (paper Fig. 1), accesses the extended memory, and
// routes back. It returns the completion time.
func (p *pathDeps) extAccess(t sim.Time, from int, addr uint64, bytes int, write bool) sim.Time {
	reqBytes, respBytes := 32, 32
	if write {
		reqBytes += bytes
	} else {
		respBytes += bytes
	}
	at := p.charge(p.net.RouteCXL(t, from, reqBytes, true))
	done := p.ext.Access(at, addr, bytes, write)
	p.tel.Add(telemetry.LevelExtended, done-at)
	return p.charge(p.net.RouteCXL(done, from, respBytes, false))
}

// writeback issues a fire-and-forget dirty eviction to the extended
// memory: it consumes NoC and CXL bandwidth but neither delays the
// requester nor counts toward its latency.
func (p *pathDeps) writeback(t sim.Time, from int, addr uint64, bytes int) {
	tr := p.net.RouteCXL(t, from, 32+bytes, true)
	p.ext.Access(tr.Arrive, addr, bytes, true)
}

// homeReq is one access's home-side work as the design's metadata step
// resolved it.
type homeReq struct {
	home  int
	row   int64 // the line's DRAM cache row at home
	addr  uint64
	bytes int // DRAM cache access size of a hit or a tag probe
	write bool
	hit   bool

	// The metadata step at home on arrival, charged to LevelMeta: a
	// fixed SRAM delay (the home SLB on a miss) and/or a 64 B DRAM read
	// of metaRow (a NUCA metadata walk).
	metaDelay sim.Time
	metaDRAM  bool
	metaRow   int64

	mispredict bool // on a hit: a second read for the right way
	probeTag   bool // on a miss: read the embedded tag before going off-device
	fetch      int  // bytes fetched from extended memory on a miss
	victim     int  // dirty victim bytes written back on a miss
}

// serveHome is the home-side skeleton every NDP design shares: route the
// request from core to the home unit, run the home metadata step, then
// read the DRAM cache on a hit, or probe the tag and fetch the line from
// extended memory on a miss, and route the response back. It returns the
// completion time and the level that supplied the data.
func (p *pathDeps) serveHome(t sim.Time, core int, r *homeReq) (sim.Time, telemetry.Level) {
	t = p.route(t, core, r.home, 32)
	dev := p.devs[r.home]
	m := t
	t += r.metaDelay
	if r.metaDRAM {
		t, _ = dev.Access(t, r.metaRow, 64, false)
	}
	p.tel.Add(telemetry.LevelMeta, t-m)
	served := telemetry.LevelCacheDRAM
	if r.hit {
		d := t
		t, _ = dev.Access(t, r.row, r.bytes, r.write)
		if r.mispredict {
			t, _ = dev.Access(t, r.row, r.bytes, false)
		}
		p.tel.Add(telemetry.LevelCacheDRAM, t-d)
	} else {
		served = telemetry.LevelExtended
		if r.probeTag {
			d := t
			t, _ = dev.Access(t, r.row, r.bytes, false)
			p.tel.Add(telemetry.LevelCacheDRAM, t-d)
		}
		t = p.fetchLine(t, r.home, r, false)
	}
	return p.route(t, r.home, core, 96), served
}

// fetchLine serves a DRAM cache miss: unit `from` fetches the line from
// extended memory, the home unit fills it off the critical path, and the
// dirty victim it displaces is written back. It returns when the data
// reaches `from`.
func (p *pathDeps) fetchLine(t sim.Time, from int, r *homeReq, write bool) sim.Time {
	t = p.extAccess(t, from, r.addr, r.fetch, write)
	p.devs[r.home].Access(t, r.row, r.fetch, true)
	if r.victim > 0 {
		p.writeback(t, r.home, r.addr, r.victim)
	}
	return t
}
