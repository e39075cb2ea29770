// Command experiments regenerates the paper's evaluation tables and
// figures on the simulated machines.
//
// Usage:
//
//	experiments -fig 5a            # one figure
//	experiments -all               # the whole matrix
//	experiments -quick -fig 5a     # subset workloads, shorter traces
//	experiments -trace run.ndptrc  # sweep all designs over a recorded trace
//
// Figures: 2, 4b, 5a, 5b, 6, 7, 8a, 8b, 9a..9f, vd (consistent hashing),
// meta (metadata hit rates), attach (extended-memory attach ablation),
// waypred (indirect-cache organization ablation), faults (degraded-mode
// sweep), adapt (NDPExt-MAB vs fixed arms on the phased workload). With -trace,
// the figure matrix is replaced by a design sweep replaying the given
// trace file (recorded with ndpsim -record or imported with ndptrace
// convert) on every machine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ndpext/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	fig := flag.String("fig", "", "figure to reproduce (2, 4b, 5a, 5b, 6, 7, 8a, 8b, 9a-9f, vd, meta, attach, waypred, faults, adapt)")
	all := flag.Bool("all", false, "run the full matrix")
	quick := flag.Bool("quick", false, "reduced workload set and trace length")
	accesses := flag.Int("accesses", 0, "override per-core access budget")
	asJSON := flag.Bool("json", false, "emit tables as JSON")
	tracePath := flag.String("trace", "", "replay this recorded trace file across all designs instead of the figure matrix")
	flag.Parse()

	opt := bench.Default()
	if *quick {
		opt = bench.Quick()
	}
	if *accesses > 0 {
		opt.AccessesPerCore = *accesses
	}

	// ^C / SIGTERM cancels in-flight simulations cooperatively: the
	// current figure aborts mid-matrix instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	opt.Ctx = ctx

	if *tracePath != "" {
		tbl, err := bench.TraceSweep(*tracePath, opt)
		if err := emit(os.Stdout, tbl, err, *asJSON, ""); err != nil {
			log.Fatal(err)
		}
		return
	}

	figs := []string{"2", "4b", "5a", "5b", "6", "7", "8a", "8b",
		"9a", "9b", "9c", "9d", "9e", "9f", "vd", "meta", "attach", "waypred", "faults", "adapt"}
	if !*all {
		if *fig == "" {
			log.Fatal("pass -fig <id> or -all")
		}
		figs = []string{strings.ToLower(*fig)}
	}

	// One failing figure must not kill the rest of the matrix: report it,
	// keep going, and exit non-zero at the end.
	failed := 0
	for _, f := range figs {
		if ctx.Err() != nil {
			log.Fatalf("interrupted; skipping remaining figures")
		}
		start := time.Now()
		tbl, err := dispatch(f, opt)
		if ctx.Err() != nil {
			log.Fatalf("interrupted during fig %s", f)
		}
		footer := fmt.Sprintf("(%s in %v)\n\n", f, time.Since(start).Round(time.Millisecond))
		if err := emit(os.Stdout, tbl, err, *asJSON, footer); err != nil {
			log.Printf("fig %s: %v", f, err)
			failed++
		}
	}
	if failed > 0 {
		log.Printf("%d of %d figures failed", failed, len(figs))
		os.Exit(1)
	}
}

// emit prints a figure's table to w, as JSON or as text followed by
// footer, and returns the figure's error err. A figure that fails in
// part returns its surviving rows beside err, the failed ones as
// FAILED(...) cells, so the table is printed whenever it has rows; a
// failure without rows prints nothing. When err is nil, emit returns the
// error of printing.
func emit(w io.Writer, tbl bench.Table, err error, asJSON bool, footer string) error {
	if err != nil && len(tbl.Rows) == 0 {
		return err
	}
	var text string
	if asJSON {
		out, jerr := tbl.JSON()
		if jerr != nil {
			return errors.Join(err, jerr)
		}
		text = string(out) + "\n"
	} else {
		text = tbl.String() + footer
	}
	if _, werr := io.WriteString(w, text); err == nil {
		err = werr
	}
	return err
}

func dispatch(fig string, opt bench.Options) (bench.Table, error) {
	switch fig {
	case "2":
		return bench.Fig2(opt)
	case "4b":
		tbl, _ := bench.Fig4b()
		return tbl, nil
	case "5a":
		tbl, _, _, err := bench.Fig5(false, opt)
		return tbl, err
	case "5b":
		tbl, _, _, err := bench.Fig5(true, opt)
		return tbl, err
	case "6":
		tbl, _, err := bench.Fig6(opt)
		return tbl, err
	case "7":
		return bench.Fig7(opt)
	case "8a":
		tbl, _, err := bench.Fig8a(opt)
		return tbl, err
	case "8b":
		tbl, _, err := bench.Fig8b(opt)
		return tbl, err
	case "9a":
		tbl, _, err := bench.Fig9a(opt)
		return tbl, err
	case "9b":
		tbl, _, err := bench.Fig9b(opt)
		return tbl, err
	case "9c":
		tbl, _, err := bench.Fig9c(opt)
		return tbl, err
	case "9d":
		tbl, _, err := bench.Fig9d(opt)
		return tbl, err
	case "9e":
		tbl, _, err := bench.Fig9e(opt)
		return tbl, err
	case "9f":
		tbl, _, err := bench.Fig9f(opt)
		return tbl, err
	case "vd":
		tbl, _, _, err := bench.SecVD(opt)
		return tbl, err
	case "meta":
		return bench.MetaHitRates(opt)
	case "attach":
		tbl, _, err := bench.AblationExtAttach(opt)
		return tbl, err
	case "waypred":
		tbl, _, err := bench.AblationWayPredict(opt)
		return tbl, err
	case "faults":
		return bench.FaultSweep(opt)
	case "adapt":
		tbl, _, err := bench.AdaptSweep(opt)
		return tbl, err
	default:
		return bench.Table{}, fmt.Errorf("unknown figure %q", fig)
	}
}
