// Trace replay workflow: generate an expensive workload once, save it,
// and replay the identical trace against several designs — the
// reproducible-comparison pattern (every design sees byte-identical
// accesses, and the file can be shared between machines).
//
// Run from the repository root:
//
//	go run ./examples/tracereplay [-trace /tmp/ndpext-gnn.ndptrc] [-accesses 8000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ndpext"
)

func main() {
	log.SetFlags(0)
	path := flag.String("trace", "/tmp/ndpext-gnn.ndptrc", "trace file path")
	workload := flag.String("workload", "gnn", "workload to generate if the file is missing")
	accesses := flag.Int("accesses", 16000, "per-core budget when generating")
	flag.Parse()

	cfg := ndpext.DefaultConfig(ndpext.DesignNDPExt)

	tr, err := ndpext.LoadTrace(*path)
	switch {
	case err == nil:
		fmt.Printf("replaying %s: %s, %d accesses, %d streams\n",
			*path, tr.Name, tr.TotalAccesses(), tr.Table.Len())
	case os.IsNotExist(err):
		fmt.Printf("generating %s (%d accesses/core) -> %s\n", *workload, *accesses, *path)
		tr, err = ndpext.GenerateTraceN(*workload, cfg.NumUnits(), 1, *accesses)
		if err != nil {
			log.Fatal(err)
		}
		if err := ndpext.SaveTrace(tr, *path); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal(err)
	}

	fmt.Printf("\n%-15s %12s %9s %10s\n", "design", "makespan", "hit", "energy-uJ")
	for _, d := range []ndpext.Design{ndpext.DesignNexus, ndpext.DesignNDPExtStatic, ndpext.DesignNDPExt} {
		res, err := ndpext.Simulate(ndpext.DefaultConfig(d), tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15v %12v %8.1f%% %10.1f\n",
			d, res.Time, 100*res.CacheHitRate(), res.Energy.Total()/1e6)
	}
	fmt.Printf("\nreplay the same file anywhere: results are bit-identical per design.\n")
}
