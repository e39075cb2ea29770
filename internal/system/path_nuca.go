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
	lk := p.nc.Lookup(core, a.Addr, a.Write)

	m := t
	t += p.clock.Cycles(p.cfg.MetaLatCycles)
	p.tel.Add(telemetry.LevelMeta, t-m)
	if lk.SID != stream.NoStream && p.pipe != nil {
		p.pipe.observe(core, lk.SID, a.Addr/uint64(64))
	}
	if p.deadHome(t, lk.Home) {
		return p.extAccess(t, core, a.Addr, max(lk.FetchBytes, 64), a.Write),
			telemetry.LevelExtended, lk.SID
	}

	// A metadata miss walks to the home unit for the DRAM metadata.
	r := homeReq{home: lk.Home, row: lk.HomeRow, addr: a.Addr, bytes: 64, write: a.Write, hit: lk.Hit,
		metaDRAM: !lk.MetaHit, metaRow: lk.MetaDRAMRow, fetch: lk.FetchBytes, victim: lk.WritebackBytes}
	if !lk.MetaHit || lk.Hit {
		done, served := p.serveHome(t, core, &r)
		return done, served, lk.SID
	}
	// Metadata hit at the requester that says the line is absent: the
	// requester fetches it from extended memory without visiting home.
	return p.fetchLine(t, core, &r, a.Write), telemetry.LevelExtended, lk.SID
}
