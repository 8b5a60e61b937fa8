// Datacenter consolidation: the headline scenario of the paper. A
// lightly loaded 1000-server cluster concentrates its workload on the
// smallest set of servers operating in the optimal regime, switches the
// rest to deep sleep (C6, per the 60% rule), and the run is compared
// against the wasteful always-on baseline.
//
// Run with:
//
//	go run ./examples/datacenter
package main

import (
	"context"
	"fmt"
	"log"

	"ealb"
)

func main() {
	const size = 1000
	const intervals = 40
	const seed = 7

	// Energy-aware cluster: consolidation enabled with the 60% rule.
	aware, awareWakes, err := run(size, seed, ealb.SleepAuto, intervals)
	if err != nil {
		log.Fatal(err)
	}
	// Baseline: identical workload, but servers are never switched off —
	// the "wasteful resource management policy" of §3.
	baseline, baselineWakes, err := run(size, seed, ealb.SleepNever, intervals)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster: %d servers, initial load uniform 20-40%% (avg 30%%), %d reallocation intervals\n\n",
		size, intervals)
	fmt.Printf("%-22s %-14s %-10s %-9s\n", "configuration", "energy (kWh)", "sleeping", "wakes")
	fmt.Printf("%-22s %-14.2f %-10d %-9d\n", "energy-aware (auto)", aware.TotalEnergy().KWh(), aware.SleepingCount(), awareWakes)
	fmt.Printf("%-22s %-14.2f %-10d %-9d\n", "always-on baseline", baseline.TotalEnergy().KWh(), baseline.SleepingCount(), baselineWakes)

	ratio := float64(baseline.TotalEnergy()) / float64(aware.TotalEnergy())
	fmt.Printf("\nmeasured E_ref/E_opt = %.2f (the paper's homogeneous model predicts 2.25 for its worked example)\n", ratio)
	fmt.Printf("energy saved: %.1f%%\n", (1-1/ratio)*100)

	// Where did the awake servers end up? The majority should sit inside
	// the optimal regime R3 with a thin tail in the suboptimal bands.
	counts := aware.RegimeCounts()
	fmt.Println("\nfinal regime distribution of awake servers:")
	for i, n := range counts {
		fmt.Printf("  R%d: %d\n", i+1, n)
	}
}

// run simulates one configuration and returns the cluster with the
// number of servers its leader woke.
func run(size int, seed uint64, sleep ealb.SleepPolicy, intervals int) (*ealb.Cluster, int, error) {
	cfg := ealb.DefaultClusterConfig(size, ealb.LowLoad(), seed)
	cfg.Sleep = sleep
	c, err := ealb.NewCluster(cfg)
	if err != nil {
		return nil, 0, err
	}
	stats, err := c.RunIntervals(context.Background(), intervals)
	if err != nil {
		return nil, 0, err
	}
	wakes := 0
	for _, st := range stats {
		wakes += st.Woken
	}
	return c, wakes, nil
}
