// Quickstart: simulate the paper's headline workload (DLRM-style
// recommendation inference) on the NDPExt machine and on the strongest
// baseline (Nexus), and print the speedup and the metrics behind it.
//
// Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ndpext"
)

func main() {
	log.SetFlags(0)

	cfg := ndpext.DefaultConfig(ndpext.DesignNDPExt)
	fmt.Printf("machine: %d NDP units (%dx%d stacks of %dx%d), %s stack memory, CXL extended memory\n\n",
		cfg.NumUnits(), cfg.NoC.StacksX, cfg.NoC.StacksY, cfg.NoC.UnitsX, cfg.NoC.UnitsY, cfg.Mem.Name)

	tr, err := ndpext.GenerateTrace("recsys", cfg.NumUnits(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s -- %d accesses across %d cores, %d annotated streams\n\n",
		tr.Name, tr.TotalAccesses(), len(tr.PerCore), tr.Table.Len())

	ndp, err := ndpext.Simulate(ndpext.DefaultConfig(ndpext.DesignNDPExt), tr)
	if err != nil {
		log.Fatal(err)
	}
	nexus, err := ndpext.Simulate(ndpext.DefaultConfig(ndpext.DesignNexus), tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %14s %14s\n", "", "NDPExt", "Nexus")
	fmt.Printf("%-22s %14v %14v\n", "makespan", ndp.Time, nexus.Time)
	fmt.Printf("%-22s %13.1f%% %13.1f%%\n", "DRAM cache hit rate", 100*ndp.CacheHitRate(), 100*nexus.CacheHitRate())
	fmt.Printf("%-22s %12.1fns %12.1fns\n", "interconnect/access", ndp.AvgInterconnectNS(), nexus.AvgInterconnectNS())
	fmt.Printf("%-22s %14s %13.1f%%\n", "metadata cache hits", "(stream SLB)", 100*nexus.MetaHitRate)
	fmt.Printf("%-22s %13.1f%% %14s\n", "SLB hit rate", 100*ndp.SLBHitRate, "(line meta)")
	fmt.Printf("%-22s %13.1fuJ %13.1fuJ\n", "total energy", ndp.Energy.Total()/1e6, nexus.Energy.Total()/1e6)
	fmt.Printf("\nNDPExt speedup over Nexus: %.2fx\n", float64(nexus.Time)/float64(ndp.Time))
	fmt.Printf("NDPExt energy saving:      %.1f%%\n", 100*(1-ndp.Energy.Total()/nexus.Energy.Total()))
}
