package bench

import (
	"errors"
	"fmt"

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
// The file is decoded once and every design replays the materialized
// trace, so a sweep costs one decode regardless of width. A failed
// design keeps its row, marked FAILED, and the failures come back in a
// *BatchError.
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

	cells := make([]Cell, len(designs))
	for i, d := range designs {
		cells[i] = Cell{Config: system.DefaultConfig(d), Workload: mat.Name, Trace: mat}
	}
	results, err := RunCells(cells, opt)
	var be *BatchError
	if err != nil && !errors.As(err, &be) {
		return tbl, err
	}
	for i, d := range designs {
		res := results[i]
		if res == nil {
			tbl.Rows = append(tbl.Rows, []string{d.String(), be.failText(i)})
			continue
		}
		speedup := "-"
		if host := results[0]; host != nil { // designs[0] is Host
			speedup = f2(float64(host.Time) / float64(res.Time))
		}
		hitRate := 0.0
		if res.Accesses > 0 {
			hitRate = float64(res.L1Hits) / float64(res.Accesses)
		}
		tbl.Rows = append(tbl.Rows, []string{
			d.String(),
			res.Time.String(),
			speedup,
			pct(hitRate),
			fmt.Sprintf("%d", res.Reconfigs),
		})
	}
	return tbl, err
}
