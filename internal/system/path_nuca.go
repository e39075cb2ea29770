package system

import (
	"ndpext/internal/nuca"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// nucaPath is the baseline memory path: metadata cache -> (DRAM metadata
// at the home unit on miss) -> data home -> extended memory on miss.
type nucaPath struct {
	*pathDeps
	nc *nuca.Controller
}

// Access serves the access issued by core at time t and returns its
// completion time, the level that supplied the data, and its stream
// (stream.NoStream when none).
func (p *nucaPath) Access(t sim.Time, core int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID) {
	tel := p.tel
	lk := p.nc.Lookup(core, a.Addr, a.Write)

	m := t
	t += p.clock.Cycles(p.cfg.MetaLatCycles)
	tel.Add(telemetry.LevelMeta, t-m)
	if lk.SID != stream.NoStream && p.pipe != nil {
		p.pipe.observe(core, lk.SID, a.Addr/uint64(64))
	}

	if p.inj != nil && p.devs[lk.Home].Offline(t) {
		// Dead home vault (fault injection): fall back to extended
		// memory and skip the fill, as in streamPath.
		p.inj.RecordRedirect()
		return p.ext.access(t, core, a.Addr, max(lk.FetchBytes, 64), a.Write),
			telemetry.LevelExtended, lk.SID
	}

	if !lk.MetaHit {
		// Walk to the home unit for the DRAM metadata access.
		tr1 := p.net.Route(t, core, lk.Home, 32)
		tel.Add(telemetry.LevelIntraNoC, tr1.IntraDelay)
		tel.Add(telemetry.LevelInterNoC, tr1.InterDelay)
		t = tr1.Arrive
		m = t
		t, _ = p.devs[lk.Home].Access(t, lk.MetaDRAMRow, 64, false)
		tel.Add(telemetry.LevelMeta, t-m)
		served := telemetry.LevelCacheDRAM
		if lk.Hit {
			d := t
			t, _ = p.devs[lk.Home].Access(t, lk.HomeRow, 64, a.Write)
			tel.Add(telemetry.LevelCacheDRAM, t-d)
			tel.CacheHits++
		} else {
			served = telemetry.LevelExtended
			tel.CacheMisses++
			t = p.ext.access(t, lk.Home, a.Addr, lk.FetchBytes, false)
			p.devs[lk.Home].Access(t, lk.HomeRow, lk.FetchBytes, true)
			if lk.WritebackBytes > 0 {
				p.ext.writeback(t, lk.Home, a.Addr, lk.WritebackBytes)
			}
		}
		tr2 := p.net.Route(t, lk.Home, core, 96)
		tel.Add(telemetry.LevelIntraNoC, tr2.IntraDelay)
		tel.Add(telemetry.LevelInterNoC, tr2.InterDelay)
		return tr2.Arrive, served, lk.SID
	}

	// Metadata hit at the requester: the location and tag are known.
	if lk.Hit {
		tr1 := p.net.Route(t, core, lk.Home, 32)
		tel.Add(telemetry.LevelIntraNoC, tr1.IntraDelay)
		tel.Add(telemetry.LevelInterNoC, tr1.InterDelay)
		t = tr1.Arrive
		d := t
		t, _ = p.devs[lk.Home].Access(t, lk.HomeRow, 64, a.Write)
		tel.Add(telemetry.LevelCacheDRAM, t-d)
		tel.CacheHits++
		tr2 := p.net.Route(t, lk.Home, core, 96)
		tel.Add(telemetry.LevelIntraNoC, tr2.IntraDelay)
		tel.Add(telemetry.LevelInterNoC, tr2.InterDelay)
		return tr2.Arrive, telemetry.LevelCacheDRAM, lk.SID
	}
	tel.CacheMisses++
	t = p.ext.access(t, core, a.Addr, lk.FetchBytes, a.Write)
	p.devs[lk.Home].Access(t, lk.HomeRow, lk.FetchBytes, true)
	if lk.WritebackBytes > 0 {
		p.ext.writeback(t, lk.Home, a.Addr, lk.WritebackBytes)
	}
	return t, telemetry.LevelExtended, lk.SID
}
