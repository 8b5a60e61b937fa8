// Policy comparison: the §3 capacity-management policies on a server
// farm hit by a configurable workload profile. With the default flash
// crowd, reactive provisioning cannot hide the 260 s server setup time,
// so it drops requests when the spike lands; the conservative autoscale
// policy and the oracle fare better at a higher energy cost. The bursty
// spike-train profile is harsher still: its recovery gaps are shorter
// than the setup time, so reactive capacity arrives one burst late,
// every burst.
//
// Run with:
//
//	go run ./examples/policycmp                  # one flash crowd
//	go run ./examples/policycmp -profile burst   # a train of them
//	go run ./examples/policycmp -profile diurnal
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
	profile := flag.String("profile", "spike",
		fmt.Sprintf("workload profile: %s", strings.Join(ealb.WorkloadProfileNames(), ", ")))
	flag.Parse()

	cfg := ealb.DefaultFarmConfig()
	cfg.Servers = 120
	cfg.Horizon = 7200

	// A quiet farm (1000 req/s) with up to 5000 req/s of profile-shaped
	// load on top.
	rate, err := ealb.WorkloadProfile(*profile, 1000, 5000, cfg.Horizon)
	if err != nil {
		log.Fatal(err)
	}

	results, err := ealb.ComparePolicies(context.Background(), cfg, ealb.StandardPoliciesFor(rate), rate)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("farm: %d servers, setup time %v, %q workload\n\n", cfg.Servers, ealb.FarmSetupTime, *profile)
	fmt.Printf("%-20s %-13s %-16s %-11s %-11s\n",
		"policy", "energy (kWh)", "violation slots", "drop rate", "avg active")
	for _, r := range results {
		fmt.Printf("%-20s %-13.2f %-16d %-11.4f %-11.1f\n",
			r.Policy, r.Energy.KWh(), r.ViolationSlots, r.DropRate(), r.AvgActive)
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - reactive is cheapest but drops load it cannot start servers fast enough for;")
	fmt.Println(" - reactive+20% and autoscale trade extra energy for fewer violations;")
	fmt.Println(" - the oracle shows the lower bound: capacity arrives exactly as demand does.")
	if *profile == "burst" {
		fmt.Println(" - with the burst train, each recovery gap is shorter than the setup time,")
		fmt.Println("   so reactive policies thrash: capacity for burst k arrives during burst k+1.")
	}
}
