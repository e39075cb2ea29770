package system

import (
	"ndpext/internal/dram"
	"ndpext/internal/fault"
	"ndpext/internal/noc"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// pathDeps bundles the hardware and accounting shared by every memory
// path stage.
type pathDeps struct {
	cfg   *Config
	clock sim.Clock
	net   *noc.Network
	devs  []*dram.Device
	ext   *extPath
	tel   *telemetry.Counters

	// pipe receives each stream access for the host runtime's
	// samplers; nil for designs that do not profile.
	pipe *epochPipe

	// inj, when non-nil, injects faults; paths consult it to redirect
	// accesses whose home vault is offline to extended memory.
	inj *fault.Injector
}

// serve is the head of the memory pipeline: compute gap + L1, then the
// design's memory path (spath or npath) on a miss. All accounting flows through s.tel; the
// optional probe receives a per-access record with per-level latencies.
func (s *ndpSim) serve(start sim.Time, core int, a workloads.Access) sim.Time {
	tel := &s.tel
	var snap [telemetry.NumLevels]sim.Time
	if s.probe != nil {
		snap = tel.Levels
	}
	tel.Accesses++

	t := start + s.clock.Cycles(int64(a.Gap)) + s.clock.Cycles(s.cfg.L1LatCycles)
	tel.Add(telemetry.LevelCore, t-start)

	done, served, sid := t, telemetry.LevelCore, stream.NoStream
	if hit, _, _ := s.l1s[core].Access(a.Addr, a.Write); hit {
		tel.L1Hits++
	} else if s.spath != nil {
		done, served, sid = s.spath.Access(t, core, a)
	} else {
		done, served, sid = s.npath.Access(t, core, a)
	}

	if s.probe != nil {
		ev := telemetry.Event{
			Seq:    tel.Accesses - 1,
			Core:   core,
			SID:    -1,
			Addr:   a.Addr,
			Write:  a.Write,
			Gap:    a.Gap,
			Served: served,
			Start:  start,
			End:    done,
		}
		if sid != stream.NoStream {
			ev.SID = int64(sid)
		}
		for l := telemetry.Level(0); l < telemetry.NumLevels; l++ {
			ev.Levels[l] = tel.Levels[l] - snap[l]
		}
		s.probe.Record(&ev)
	}
	return done
}
