package bench

import (
	"fmt"
	"runtime"
	"sync"

	"ndpext/internal/sim"
	"ndpext/internal/system"
	tracefmt "ndpext/internal/trace"
)

// TraceSweep replays one recorded trace file across the paper's design
// matrix: the host baseline plus every NDP design, all consuming the
// identical access stream. This is the trace subsystem's answer to
// "what would MY application see on these machines" — import a trace
// with ndptrace convert (or record one with ndpsim -record) and sweep
// it instead of a synthetic generator.
//
// The file is decoded once; every design replays a clone of the
// materialized trace, so a sweep costs one decode regardless of width.
func TraceSweep(path string, opt Options) (Table, error) {
	r, err := tracefmt.OpenFile(path)
	if err != nil {
		return Table{}, err
	}
	mat, err := r.Materialize()
	r.Close()
	if err != nil {
		return Table{}, err
	}

	designs := []system.Design{system.Host, system.Jigsaw, system.Whirlpool,
		system.Nexus, system.NDPExtStatic, system.NDPExt}
	tbl := Table{
		Title:   fmt.Sprintf("Trace sweep: %s (%d cores, %d accesses)", mat.Name, len(mat.PerCore), mat.TotalAccesses()),
		Columns: []string{"design", "time", "speedup-vs-host", "l1-hit", "reconfigs"},
	}

	// NDP designs demand the trace's core count to match the machine; a
	// width mismatch is a usage error worth naming, not a silent skip.
	if n := system.DefaultConfig(system.NDPExt).NumUnits(); len(mat.PerCore) != n {
		return tbl, fmt.Errorf("trace %s has %d cores; the NDP machines simulate %d (re-record or convert with -cores %d)",
			path, len(mat.PerCore), n, n)
	}

	results := make([]*system.Result, len(designs))
	errs := make([]error, len(designs))
	sem := make(chan struct{}, max(runtime.GOMAXPROCS(0), 1))
	ctx := opt.context()
	var wg sync.WaitGroup
	for i, d := range designs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, d system.Design) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = system.RunContext(ctx, system.DefaultConfig(d), mat.Source())
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return tbl, fmt.Errorf("%s: %w", designs[i], err)
		}
	}

	var hostT sim.Time
	for i, d := range designs {
		if d == system.Host {
			hostT = results[i].Time
		}
	}
	for i, d := range designs {
		res := results[i]
		hitRate := 0.0
		if res.Accesses > 0 {
			hitRate = float64(res.L1Hits) / float64(res.Accesses)
		}
		tbl.Rows = append(tbl.Rows, []string{
			d.String(),
			res.Time.String(),
			f2(float64(hostT) / float64(res.Time)),
			pct(hitRate),
			fmt.Sprintf("%d", res.Reconfigs),
		})
	}
	return tbl, nil
}
