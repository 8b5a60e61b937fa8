package ealb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"ealb"
)

// ExampleNewCluster builds a small cluster and runs the reallocation
// protocol; every number is reproducible from the seed.
func ExampleNewCluster() {
	cfg := ealb.DefaultClusterConfig(50, ealb.LowLoad(), 1)
	c, err := ealb.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		log.Fatal(err)
	}
	fmt.Println("servers:", len(c.Servers()))
	fmt.Println("sleeping:", c.SleepingCount())
	// Output:
	// servers: 50
	// sleeping: 10
}

// ExamplePaperExample reproduces the paper's §4 worked example.
func ExamplePaperExample() {
	m := ealb.PaperExample()
	ratio, err := m.EnergyRatio()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E_ref/E_opt = %.2f\n", ratio)
	// Output:
	// E_ref/E_opt = 2.25
}

// ExampleSimulatePolicy runs the reactive policy against a constant load.
func ExampleSimulatePolicy() {
	cfg := ealb.DefaultFarmConfig()
	cfg.Horizon = 600
	res, err := ealb.SimulatePolicy(context.Background(), cfg, ealbReactive(), ealb.ConstantRate(1000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("slots:", res.Slots)
	// Output:
	// policy: reactive
	// slots: 60
}

// ealbReactive picks the reactive policy out of the standard set.
func ealbReactive() ealb.Policy {
	return ealb.StandardPolicies(ealb.ConstantRate(1000))[0]
}

// ExampleEngine_RunSweep submits one multi-seed sweep request and reads
// the per-group aggregate statistics. The three seeds run in parallel,
// yet every cell is bit-identical to running it alone: each derives its
// own random streams from its seed.
func ExampleEngine_RunSweep() {
	var spec ealb.SweepSpec
	err := json.Unmarshal([]byte(`{"size":50,"intervals":10,"seeds":[1,2,3]}`), &spec)
	if err != nil {
		log.Fatal(err)
	}
	eng := ealb.NewEngine(4)
	res, err := eng.RunSweep(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	agg := res.Aggregates[0]
	fmt.Println("cells:", len(res.Cells))
	fmt.Println("group:", agg.Group)
	fmt.Printf("mean energy: %.2f kWh\n", agg.Energy.Mean/3.6e6)
	fmt.Printf("energy min/max: %.2f/%.2f kWh\n", agg.Energy.Min/3.6e6, agg.Energy.Max/3.6e6)
	// Output:
	// cells: 3
	// group: size=50 band=low sleep=auto
	// mean energy: 1.02 kWh
	// energy min/max: 1.01/1.03 kWh
}
