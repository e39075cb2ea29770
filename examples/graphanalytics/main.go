// Graph analytics on NDP with extended memory: run the GAP-style graph
// kernels (bfs, pr, cc) across all cache-management designs and print the
// per-design latency breakdowns -- the scenario from the paper's
// introduction, where fine-grained irregular accesses stress both
// metadata management and data placement.
//
// Run from the repository root:
//
//	go run ./examples/graphanalytics [-workloads pr,bfs,cc] [-accesses 12000]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"ndpext"
)

func main() {
	log.SetFlags(0)
	workloadsFlag := flag.String("workloads", "pr,bfs,cc", "comma-separated graph workloads")
	accesses := flag.Int("accesses", 12000, "per-core access budget")
	flag.Parse()

	for _, w := range strings.Split(*workloadsFlag, ",") {
		w = strings.TrimSpace(w)
		cfg := ndpext.DefaultConfig(ndpext.DesignNDPExt)

		tr, err := ndpext.GenerateTraceN(w, cfg.NumUnits(), 1, *accesses)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s (%d accesses, %d streams) ==\n", w, tr.TotalAccesses(), tr.Table.Len())
		fmt.Printf("%-15s %12s %8s %8s %10s %s\n",
			"design", "makespan", "hit", "miss", "inter-ns", "latency breakdown")
		var host *ndpext.Result
		h, err := ndpext.Simulate(ndpext.DefaultConfig(ndpext.DesignHost), tr)
		if err != nil {
			log.Fatal(err)
		}
		host = h
		fmt.Printf("%-15s %12v %8s %8s %10s %s\n",
			"Host", host.Time, "-", "-", "-", host.Breakdown.String())

		for _, d := range ndpext.Designs() {
			res, err := ndpext.Simulate(ndpext.DefaultConfig(d), tr)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-15s %12v %7.1f%% %7.1f%% %10.1f %s   (%.2fx vs host)\n",
				d, res.Time, 100*res.CacheHitRate(), 100*res.MissRate(),
				res.AvgInterconnectNS(), res.Breakdown.String(),
				float64(host.Time)/float64(res.Time))
		}
		fmt.Println()
	}
}
