package system

import (
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// streamPath is the NDPExt memory path: SLB -> home unit -> ATA/embedded
// tag -> extended memory on miss.
type streamPath struct {
	*pathDeps
	sc *streamcache.Controller
}

// Access serves the access issued by core at time t and returns its
// completion time, the level that supplied the data, and its stream.
func (p *streamPath) Access(t sim.Time, core int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID) {
	var lk streamcache.Lookup
	p.sc.Lookup(core, a.Addr, a.Write, &lk)

	m := t
	t += p.clock.Cycles(p.cfg.SLBLatCycles)
	if lk.SLBMissLocal {
		t += p.cfg.SLBMissPenalty
	}
	if lk.WriteException {
		t += p.cfg.WriteExceptionLat
		p.tel.Exceptions++
	}
	p.tel.Add(telemetry.LevelMeta, t-m)

	if !lk.Bypass && p.pipe != nil {
		// Sample before the no-space branch: an unfunded stream must
		// still be profiled, or it could never earn an allocation.
		p.pipe.observe(core, lk.SID, lk.ItemID)
	}
	if lk.Bypass || lk.NoSpace || p.deadHome(t, lk.Home) {
		return p.extAccess(t, core, a.Addr, max(lk.FetchBytes, 64), a.Write),
			telemetry.LevelExtended, lk.SID
	}

	r := homeReq{home: lk.Home, row: lk.HomeRow, addr: a.Addr, write: a.Write, hit: lk.Hit,
		mispredict: lk.WayMispredict, fetch: lk.FetchBytes, victim: lk.WritebackBytes}
	if lk.SLBMissHome {
		r.metaDelay = p.clock.Cycles(p.cfg.SLBLatCycles) + p.cfg.SLBMissPenalty
	}
	r.bytes = 64 // column read within an affine block
	if !lk.Affine {
		// Indirect streams keep the tag with the element and discover a
		// miss by reading it: one DRAM access before going off-device.
		r.bytes = lk.ItemBytes + p.cfg.Stream.TagBytes
		r.probeTag = true
	}
	done, served := p.serveHome(t, core, &r)
	return done, served, lk.SID
}
