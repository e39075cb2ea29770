// Design-space exploration with the public API: sweep two of the paper's
// §VII-C design knobs -- the CXL link latency (Fig. 8b) and the indirect
// stream cache associativity (Fig. 9a) -- on a workload of your choice,
// printing how NDPExt's advantage over Nexus moves.
//
// Run from the repository root:
//
//	go run ./examples/designspace [-workload recsys] [-accesses 12000]
package main

import (
	"flag"
	"fmt"
	"log"

	"ndpext"
)

func main() {
	log.SetFlags(0)
	workload := flag.String("workload", "recsys", "workload to sweep")
	accesses := flag.Int("accesses", 12000, "per-core access budget")
	flag.Parse()

	base := ndpext.DefaultConfig(ndpext.DesignNDPExt)
	tr, err := ndpext.GenerateTraceN(*workload, base.NumUnits(), 1, *accesses)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("CXL link latency sweep (%s) -- Fig. 8(b) shape: slower links favour NDPExt\n", *workload)
	fmt.Printf("%10s %14s %14s %10s\n", "latency", "NDPExt", "Nexus", "speedup")
	for _, ns := range []float64{50, 100, 200, 400} {
		mk := func(d ndpext.Design) ndpext.Config {
			cfg := ndpext.DefaultConfig(d)
			cfg.CXL.LinkLatency = ndpext.FromNS(ns)
			return cfg
		}
		nd, err := ndpext.Simulate(mk(ndpext.DesignNDPExt), tr)
		if err != nil {
			log.Fatal(err)
		}
		nx, err := ndpext.Simulate(mk(ndpext.DesignNexus), tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8.0fns %14v %14v %9.2fx\n", ns, nd.Time, nx.Time,
			float64(nx.Time)/float64(nd.Time))
	}

	fmt.Printf("\nIndirect-cache associativity sweep (%s) -- Fig. 9(a) shape: direct-mapped is close\n", *workload)
	fmt.Printf("%10s %14s %10s %10s\n", "ways", "makespan", "hit-rate", "vs-1-way")
	var base1 *ndpext.Result
	for _, ways := range []int{1, 4, 16, 64} {
		cfg := ndpext.DefaultConfig(ndpext.DesignNDPExt)
		cfg.Stream.IndirectWays = ways
		res, err := ndpext.Simulate(cfg, tr)
		if err != nil {
			log.Fatal(err)
		}
		if ways == 1 {
			base1 = res
		}
		fmt.Printf("%10d %14v %9.1f%% %9.2fx\n", ways, res.Time,
			100*res.CacheHitRate(), float64(base1.Time)/float64(res.Time))
	}
}
