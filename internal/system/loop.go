package system

import (
	"context"
	"errors"
	"fmt"

	"ndpext/internal/cache"
	"ndpext/internal/sim"
	"ndpext/internal/stats"
	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// The TruncateReasons of a context stop by its deadline and by cancellation.
const truncatedWall, truncatedCanceled = "wall-clock limit exceeded", "canceled"

// eventLoop is the event loop every design runs, together with the L1
// front end its cores share. Each core holds a one-access lookahead; a
// time-ordered queue wakes the core whose access issues next. An access
// pays its compute gap and an L1 lookup, and on a miss goes down the
// design's memory path. All accounting flows through tel, and the
// optional Config.Probe receives a per-access record with per-level
// latencies.
type eventLoop struct {
	cfg   *Config
	clock sim.Clock
	// now is the time of the event being served. The design's
	// contended resources run on it (sim.Resource.SetClock): every
	// reservation an access makes arrives at or after it.
	now   sim.Time
	l1Lat sim.Time
	tel   *telemetry.Counters
	l1s   []*cache.Cache // one private L1 per core

	// miss serves an access that missed the L1 at time t and returns
	// its completion time, the level that supplied the data, and its
	// stream (stream.NoStream when none).
	miss func(t sim.Time, core int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID)
	// boundary runs the host runtime at each epoch boundary
	// (every Config.EpochCycles); nil for a design without epochs.
	boundary func(at sim.Time)
}

// newEventLoop builds the loop's L1 front end for the given core count;
// the caller wires miss and boundary.
func newEventLoop(cfg *Config, cores int, tel *telemetry.Counters) (*eventLoop, error) {
	clock := sim.NewClock(cfg.CoreFreqMHz)
	l := &eventLoop{cfg: cfg, clock: clock, l1Lat: clock.Cycles(cfg.L1LatCycles), tel: tel,
		l1s: make([]*cache.Cache, cores)}
	for i := range l.l1s {
		l1, err := cache.NewChecked(cfg.L1Bytes, cfg.L1LineBytes, cfg.L1Assoc)
		if err != nil {
			return nil, err
		}
		l.l1s[i] = l1
	}
	return l, nil
}

// access simulates one access issued by core at start: the compute gap
// and the L1 lookup, then the memory path on a miss.
func (l *eventLoop) access(start sim.Time, core int, a workloads.Access) (sim.Time, telemetry.Level, stream.ID) {
	t := start + l.clock.Cycles(int64(a.Gap)) + l.l1Lat
	l.tel.Add(telemetry.LevelCore, t-start)
	if hit, _, _ := l.l1s[core].Access(a.Addr, a.Write); hit {
		l.tel.L1Hits++
		return t, telemetry.LevelCore, stream.NoStream
	}
	return l.miss(t, core, a)
}

// run drives the queue over src, one sequence per core, until every core
// is exhausted, the simulated-cycle budget runs out, or ctx stops it (a
// deadline or a cancellation); a stopped run sets res.Truncated and its
// counters cover the simulated prefix. It then fills res's makespan and
// counter views. The error is src's read error, or context.Cause(ctx)
// when ctx stopped the run.
func (l *eventLoop) run(ctx context.Context, src workloads.Source, res *Result) error {
	cfg, tel, probe := l.cfg, l.tel, l.cfg.Probe
	var q sim.EventQueue
	pending := make([]workloads.Access, len(l.l1s))
	for c := range pending {
		if a, ok := src.Next(c); ok {
			pending[c] = a
			q.Push(0, c)
		}
	}
	var cycleBudget sim.Time
	if cfg.MaxCycles > 0 {
		cycleBudget = l.clock.Cycles(cfg.MaxCycles)
	}
	epoch := l.clock.Cycles(cfg.EpochCycles)
	nextEpoch := epoch
	var end sim.Time
	var stopped error
	for n := 0; q.Len() > 0; n++ {
		ev := q.Pop()
		l.now = ev.When
		if cycleBudget > 0 && ev.When >= cycleBudget {
			res.Truncated, res.TruncateReason = true, "cycle budget exceeded"
			break
		}
		// The context check is amortized over event batches; it
		// includes n == 0 so an expired context truncates before any
		// work.
		if n&1023 == 0 && ctx.Err() != nil {
			stopped = context.Cause(ctx)
			res.Truncated, res.TruncateReason = true, truncatedCanceled
			if errors.Is(stopped, context.DeadlineExceeded) {
				res.TruncateReason = truncatedWall
			}
			break
		}
		if l.boundary != nil {
			for ev.When >= nextEpoch {
				l.boundary(nextEpoch)
				nextEpoch += epoch
			}
		}
		c := ev.ID
		a := pending[c]
		var snap [telemetry.NumLevels]sim.Time
		if probe != nil {
			snap = tel.Levels
		}
		tel.Accesses++
		done, served, sid := l.access(ev.When, c, a)
		if probe != nil {
			pev := telemetry.Event{
				Seq:    tel.Accesses - 1,
				Core:   c,
				SID:    -1,
				Addr:   a.Addr,
				Write:  a.Write,
				Gap:    a.Gap,
				Served: served,
				Start:  ev.When,
				End:    done,
			}
			if sid != stream.NoStream {
				pev.SID = int64(sid)
			}
			for lv := telemetry.Level(0); lv < telemetry.NumLevels; lv++ {
				pev.Levels[lv] = tel.Levels[lv] - snap[lv]
			}
			probe.Record(&pev)
		}
		if done > end {
			end = done
		}
		if a, ok := src.Next(c); ok {
			pending[c] = a
			q.Push(done, c)
		}
	}
	res.Time = end
	res.Accesses = tel.Accesses
	res.L1Hits = tel.L1Hits
	res.Breakdown = stats.Breakdown{
		Core:      tel.Levels[telemetry.LevelCore],
		Meta:      tel.Levels[telemetry.LevelMeta],
		IntraNoC:  tel.Levels[telemetry.LevelIntraNoC],
		InterNoC:  tel.Levels[telemetry.LevelInterNoC],
		CacheDRAM: tel.Levels[telemetry.LevelCacheDRAM],
		Extended:  tel.Levels[telemetry.LevelExtended],
		Accesses:  tel.Accesses,
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("system: access feed failed mid-run: %w", err)
	}
	return stopped
}
