// Federated farm: the paper's full cloud ecosystem — many clusters,
// each run by its own leader, behind a front-end that directs incoming
// applications (§4) — compared across dispatcher policies at a fixed
// total server count. The cluster-level protocol is identical in every
// run; only the front-end's routing changes, so differences in power,
// sleep counts and overload come purely from where new load lands.
//
// Run with:
//
//	go run ./examples/farm
//	go run ./examples/farm -clusters 8 -size 50 -load high
//	go run ./examples/farm -arrivals 20 -intervals 60
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"ealb"
)

func main() {
	clusters := flag.Int("clusters", 4, "number of federated clusters")
	size := flag.Int("size", 100, "servers per cluster")
	load := flag.String("load", "low", "initial load band: low or high")
	intervals := flag.Int("intervals", 40, "reallocation intervals")
	seed := flag.Uint64("seed", 2014, "simulation seed")
	arrivals := flag.Float64("arrivals", -1, "mean arriving apps per interval (-1 = default)")
	flag.Parse()

	band := ealb.LowLoad()
	if *load == "high" {
		band = ealb.HighLoad()
	}
	eng := ealb.NewEngine(0)

	fmt.Printf("farm: %d clusters × %d servers (%d total), %s initial load, %d intervals\n\n",
		*clusters, *size, *clusters**size, *load, *intervals)
	fmt.Printf("%-17s %-13s %-13s %-11s %-10s %-10s %-9s\n",
		"dispatch", "energy (kWh)", "avg power(W)", "avg asleep", "overload", "dispatched", "rejected")

	for _, name := range ealb.DispatchPolicyNames() {
		policy, err := ealb.ParseDispatchPolicy(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := ealb.DefaultClusterFarmConfig(*clusters, *size, band, *seed)
		cfg.Dispatch = policy
		if *arrivals >= 0 {
			cfg.ArrivalRate = *arrivals
		}
		f, err := ealb.NewClusterFarm(cfg)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := f.RunIntervals(context.Background(), *intervals, eng)
		if err != nil {
			log.Fatal(err)
		}

		var asleep, power, overload float64
		var dispatched, rejected int
		for _, st := range stats {
			asleep += float64(st.Sleeping)
			power += float64(st.TotalPower)
			overload += st.OverloadFraction
			dispatched += st.Dispatched
			rejected += st.Rejected
		}
		n := float64(len(stats))
		fmt.Printf("%-17s %-13.2f %-13.0f %-11.1f %-10.5f %-10d %-9d\n",
			name, f.TotalEnergy().KWh(), power/n, asleep/n, overload/n,
			dispatched, rejected)
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - every run simulates the identical per-cluster protocol on the identical seeds;")
	fmt.Println("   only the front-end's routing differs, so the deltas are pure dispatch effects;")
	fmt.Println(" - round-robin spreads arrivals evenly and thinly — at low load that perturbs")
	fmt.Println("   consolidation least, so it tends to keep the most servers asleep;")
	fmt.Println(" - least-loaded targets the emptiest cluster, which evens out hotspots and")
	fmt.Println("   gives the lowest overload fraction once the farm runs hot;")
	fmt.Println(" - energy-headroom concentrates arrivals on awake spare capacity, trading a")
	fmt.Println("   little consolidation for never pressuring sleepers toward a wake-up.")
	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("per-interval farm streams: ealb-sim -clusters N -dispatch <policy> -csv")
}
