// Migration cost: the question the paper's abstract singles out — "we
// report the VM migration costs for application scaling". This example
// prices live (pre-copy) migration of VMs with different memory sizes and
// dirty-page rates, compares against cold (stop-and-copy) migration, and
// shows when sleeping a server pays for the migrations needed to empty it.
//
// Run with:
//
//	go run ./examples/migrationcost
package main

import (
	"fmt"
	"log"

	"ealb/internal/server"
	"ealb/internal/units"
)

func main() {
	p := server.DefaultMigrationParams()
	fmt.Printf("migration link: %v/s, stop threshold %v, endpoint overhead %v+%v\n\n",
		p.Bandwidth, p.StopThreshold, p.SourceOverhead, p.TargetOverhead)

	fmt.Printf("%-10s %-12s %-7s %-10s %-10s %-12s %-10s\n",
		"memory", "dirty rate", "rounds", "total", "downtime", "moved", "energy")
	id := server.VMID(1)
	for _, mem := range []units.Bytes{units.GB, 2 * units.GB, 4 * units.GB} {
		for _, dirty := range []units.Bytes{10 * units.MB, 50 * units.MB, 110 * units.MB} {
			v, err := server.NewVM(id, server.VMConfig{
				Memory: mem, CPUShare: 0.25, DirtyRate: dirty,
			})
			if err != nil {
				log.Fatal(err)
			}
			id++
			res, err := server.LiveMigration(v, p)
			if err != nil {
				log.Fatal(err)
			}
			conv := ""
			if !res.Converged {
				conv = " (forced stop)"
			}
			fmt.Printf("%-10v %-12s %-7d %-10v %-10v %-12v %v%s\n",
				mem, fmt.Sprintf("%v/s", dirty), res.Rounds, res.Total,
				res.Downtime, res.Bytes, res.Energy, conv)
		}
	}

	// Live vs cold for a typical instance.
	v, err := server.NewVM(id, server.VMConfig{Memory: 2 * units.GB, CPUShare: 0.25, DirtyRate: 40 * units.MB})
	if err != nil {
		log.Fatal(err)
	}
	live, err := server.LiveMigration(v, p)
	if err != nil {
		log.Fatal(err)
	}
	cold, err := server.ColdMigration(v, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive vs cold (2 GiB VM, 40 MiB/s dirty): downtime %v vs %v, bytes %v vs %v\n",
		live.Downtime, cold.Downtime, live.Bytes, cold.Bytes)

	// When does emptying a server to sleep it pay off? Three VM
	// migrations cost ~3× live.Energy; sleeping saves (idle − C6 draw)
	// continuously; the C6 wake itself costs peak × 260 s.
	const peak, idle = units.Watts(200), units.Watts(100)
	specs := server.DefaultSpecs()
	be, err := server.BreakEven(specs[server.C6], peak, idle)
	if err != nil {
		log.Fatal(err)
	}
	migCost := 3 * float64(live.Energy)
	extra := migCost / float64(idle-specs[server.C6].SleepPower(peak))
	fmt.Printf("\nsleep economics for a server hosting 3 such VMs (peak %v, idle %v):\n", peak, idle)
	fmt.Printf("  C6 break-even from transitions alone: %v\n", be)
	fmt.Printf("  3 migrations add %.0f J -> %.0f s more of sleep to amortize\n", migCost, extra)
	fmt.Printf("  => the server must stay asleep ≥ %.0f s (%.1f reallocation intervals of 60 s) to save energy\n",
		float64(be)+extra, (float64(be)+extra)/60)
}
