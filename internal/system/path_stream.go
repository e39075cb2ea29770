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
	sc    *streamcache.Controller
	table *stream.Table
}

// Access serves the access issued by core at time t and returns its
// completion time, the level that supplied the data, and its stream.
func (p *streamPath) Access(t sim.Time, core int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID) {
	tel := p.tel
	lk := p.sc.Lookup(core, a.Addr, a.Write)

	m := t
	t += p.clock.Cycles(p.cfg.SLBLatCycles)
	if lk.SLBMissLocal {
		t += p.cfg.SLBMissPenalty
	}
	if lk.WriteException {
		t += p.cfg.WriteExceptionLat
		tel.Exceptions++
	}
	tel.Add(telemetry.LevelMeta, t-m)

	if !lk.Bypass && p.pipe != nil {
		// Sample before the no-space branch: an unfunded stream must
		// still be profiled, or it could never earn an allocation.
		p.pipe.observe(core, lk.SID, lk.ItemID)
	}
	if lk.Bypass || lk.NoSpace {
		// The controller counts these as misses too.
		tel.CacheMisses++
		return p.ext.access(t, core, a.Addr, max(lk.FetchBytes, 64), a.Write),
			telemetry.LevelExtended, lk.SID
	}
	if p.inj != nil && p.devs[lk.Home].Offline(t) {
		// The home vault is dead (fault injection): serve from extended
		// memory until the next reconfiguration remaps the stream. The
		// SLB/ATA are logic-die SRAM and keep answering, so the lookup
		// above stands; skipping the fill keeps the dead vault cold.
		p.inj.RecordRedirect()
		return p.ext.access(t, core, a.Addr, max(lk.FetchBytes, 64), a.Write),
			telemetry.LevelExtended, lk.SID
	}

	// Request to the home unit.
	tr1 := p.net.Route(t, core, lk.Home, 32)
	tel.Add(telemetry.LevelIntraNoC, tr1.IntraDelay)
	tel.Add(telemetry.LevelInterNoC, tr1.InterDelay)
	t = tr1.Arrive
	if lk.SLBMissHome {
		m = t
		t += p.clock.Cycles(p.cfg.SLBLatCycles) + p.cfg.SLBMissPenalty
		tel.Add(telemetry.LevelMeta, t-m)
	}

	accBytes := 64 // column read within an affine block
	if !lk.Affine {
		st := p.table.Get(lk.SID)
		accBytes = int(st.ElemSize) + p.cfg.Stream.TagBytes
	}
	served := telemetry.LevelCacheDRAM
	if lk.Hit {
		d := t
		t, _ = p.devs[lk.Home].Access(t, lk.HomeRow, accBytes, a.Write)
		if lk.WayMispredict {
			// Way-predicted associative organization: a misprediction
			// costs a second DRAM access to read the right way.
			t, _ = p.devs[lk.Home].Access(t, lk.HomeRow, accBytes, false)
		}
		tel.Add(telemetry.LevelCacheDRAM, t-d)
		tel.CacheHits++
	} else {
		served = telemetry.LevelExtended
		tel.CacheMisses++
		if !lk.Affine {
			// Indirect streams discover the miss by reading the
			// embedded tag: one DRAM access before going off-device.
			d := t
			t, _ = p.devs[lk.Home].Access(t, lk.HomeRow, accBytes, false)
			tel.Add(telemetry.LevelCacheDRAM, t-d)
		}
		t = p.ext.access(t, lk.Home, a.Addr, lk.FetchBytes, false)
		// Fill the DRAM cache off the critical path.
		p.devs[lk.Home].Access(t, lk.HomeRow, lk.FetchBytes, true)
		if lk.WritebackBytes > 0 {
			p.ext.writeback(t, lk.Home, a.Addr, lk.WritebackBytes)
		}
	}

	// Response with the data.
	tr2 := p.net.Route(t, lk.Home, core, 96)
	tel.Add(telemetry.LevelIntraNoC, tr2.IntraDelay)
	tel.Add(telemetry.LevelInterNoC, tr2.InterDelay)
	return tr2.Arrive, served, lk.SID
}
