// Command ealb-sim runs a single cluster — or, with -clusters, a
// federated multi-cluster farm behind a front-end dispatcher — and
// streams per-interval statistics, suitable for piping into plotting
// tools.
//
// The flags describe one engine.Scenario cell, which runs through the
// engine's sweep executor exactly as an ealb-serve run of the same cell
// does; the service's caps and checks apply.
//
// Usage:
//
//	ealb-sim -size 1000 -load high -intervals 40 -seed 42
//	ealb-sim -size 100 -load low -csv
//	ealb-sim -size 10000 -cpuprofile cpu.out -memprofile mem.out
//	ealb-sim -clusters 4 -size 100 -dispatch least-loaded
//	ealb-sim -clusters 8 -size 50 -dispatch energy-headroom -arrivals 10 -csv
//	ealb-sim -size 100 -mtbf 3600 -mttr 300     # stochastic server churn
//	ealb-sim -size 100 -trace out.ndjson        # decision trace + phase timing summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"ealb/internal/engine"
	"ealb/internal/trace"
	"ealb/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status so error paths
// (including a Ctrl-C abandon) unwind through the deferred profile
// flushes — os.Exit inside would leave a truncated CPU profile.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ealb-sim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		size       = flags.Int("size", 1000, "cluster size (number of servers, per cluster when -clusters > 1); 1 < size <= 100000 and clusters × size <= 100000")
		load       = flags.String("load", "low", "initial load band: low (20-40%), high (60-80%) or lo-hi fractions such as 0.25-0.45")
		intervals  = flags.Int("intervals", 40, "reallocation intervals to simulate")
		seed       = flags.Uint64("seed", 2014, "simulation seed")
		sleep      = flags.String("sleep", "auto", "sleep policy: auto, c3 (or c3-only), c6 (or c6-only), never (or always-on)")
		mtbf       = flags.Float64("mtbf", 0, "mean time between failures per server in seconds; 0 disables churn")
		mttr       = flags.Float64("mttr", 300, "mean time to repair a failed server in seconds (inert when -mtbf is 0)")
		clusters   = flags.Int("clusters", 1, "number of federated clusters; above 1 runs a farm behind a front-end dispatcher")
		dispatch   = flags.String("dispatch", "", "farm dispatch policy: round-robin (the default), least-loaded, energy-headroom")
		arrivals   = flags.Float64("arrivals", -1, "mean new applications arriving per interval farm-wide (-1 selects the default open workload)")
		csv        = flags.Bool("csv", false, "emit CSV instead of a table")
		cpuprofile = flags.String("cpuprofile", "", "write a CPU profile of the simulation to this file (sizes above 100000: profile BenchmarkClusterIntervals instead)")
		memprofile = flags.String("memprofile", "", "write an allocation profile (after the run) to this file")
		tracePath  = flags.String("trace", "", "write decision events and phase timings as NDJSON to this file and print a phase-timing summary on exit")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ealb-sim:", err)
		return 1
	}

	// Scenario.Normalized reads a zero size, interval count or cluster
	// count as "use the default", so the flags refuse them here.
	if *size <= 0 || *intervals <= 0 || *clusters <= 0 {
		return fail(errors.New("-size, -intervals and -clusters must be positive"))
	}
	s := engine.Scenario{
		Seed:      engine.SeedOf(*seed),
		Size:      *size,
		Band:      *load,
		Intervals: *intervals,
		Sleep:     *sleep,
		MTBF:      engine.RateOf(*mtbf),
		MTTR:      engine.RateOf(*mttr),
		Dispatch:  *dispatch,
	}
	if *arrivals != -1 {
		s.ArrivalRate = engine.RateOf(*arrivals)
	}
	if *clusters > 1 {
		s.Kind, s.Clusters = engine.KindFarm, *clusters
	}
	// Validation refuses farm-only fields on a cluster run, churn without
	// a repair time and everything outside the service's caps.
	ex, err := engine.SweepSpec{Scenario: s}.Expand()
	if err != nil {
		return fail(err)
	}

	// Profiling hooks: the CLI is the convenient harness for capturing
	// hot-path profiles at any size without test scaffolding
	// (`ealb-sim -size 10000 -cpuprofile cpu.out`, then `go tool pprof`).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // flush accurate allocation stats before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "ealb-sim:", err)
			}
			f.Close()
		}()
	}

	// Ctrl-C abandons the simulation at its next interval.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Decision tracing: NDJSON to the file, aggregate summary to stderr.
	// Attaching the tracer cannot change the simulated output — the
	// digests are byte-identical either way (the trace package contract).
	var hooks engine.RunHooks
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		tw := trace.NewWriter(f)
		rec := trace.NewRecorder()
		tracer := trace.Multi(tw, rec)
		hooks.TracerFor = func(int) trace.Tracer { return tracer }
		defer func() {
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(stderr, "ealb-sim: trace:", err)
			}
			f.Close()
			fmt.Fprint(stderr, "\n"+rec.Summary())
		}()
	}

	res, err := engine.NewPool(0).RunExpandedHooked(ctx, ex, hooks)
	if err != nil {
		return fail(err)
	}
	cell := res.Cells[0]
	if cell.Farm != nil {
		printFarm(stdout, stderr, *cell.Farm, *csv, *mtbf > 0)
	} else {
		printCluster(stdout, stderr, *cell.Cluster, *csv, *mtbf > 0)
	}
	return 0
}

// printCluster renders a cluster run: the interval table or CSV on
// stdout, the run summary on stderr.
func printCluster(stdout, stderr io.Writer, run engine.ClusterRun, csv, churn bool) {
	migrations := 0
	if csv {
		fmt.Fprintln(stdout, "interval,ratio,local,incluster,migrations,sleeping,woken,sla_violations,cluster_load,interval_energy_j,avg_q_j,avg_p_j,avg_j_j")
	} else {
		fmt.Fprintf(stdout, "%-8s %-8s %-7s %-10s %-10s %-9s %-6s %-8s\n",
			"interval", "ratio", "local", "in-cluster", "migrations", "sleeping", "SLA", "load")
	}
	for _, s := range run.Stats {
		migrations += s.Migrations
		if csv {
			fmt.Fprintf(stdout, "%d,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.1f,%.2f,%.2f,%.4f\n",
				s.Index, s.Ratio, s.Decisions.Local, s.Decisions.InCluster,
				s.Migrations, s.Sleeping, s.Woken, s.SLAViolations,
				float64(s.ClusterLoad), float64(s.IntervalEnergy),
				float64(s.AvgQCost), float64(s.AvgPCost), float64(s.AvgJCost))
		} else {
			fmt.Fprintf(stdout, "%-8d %-8.3f %-7d %-10d %-10d %-9d %-6d %-8.3f\n",
				s.Index, s.Ratio, s.Decisions.Local, s.Decisions.InCluster,
				s.Migrations, s.Sleeping, s.SLAViolations, float64(s.ClusterLoad))
		}
	}

	fmt.Fprintf(stderr,
		"\ntotal energy: %v  migrations: %d  wakes: %d  sleeping at end: %d  mean ratio: %.4f (std %.4f)\n",
		units.Joules(run.Energy), migrations, run.Wakes, run.Sleeping, run.MeanRatio, run.StdRatio)
	if churn {
		fmt.Fprintf(stderr,
			"churn: failures: %d  repairs: %d  apps replaced: %d  apps lost: %d  failed at end: %d\n",
			run.Failures, run.Repairs, run.AppsReplaced, run.AppsLost, run.Stats[len(run.Stats)-1].FailedCount)
	}
}

// printFarm renders a federated farm run: the interval table or CSV on
// stdout, the run summary on stderr.
func printFarm(stdout, stderr io.Writer, run engine.FarmRun, csv, churn bool) {
	if csv {
		fmt.Fprintln(stdout, "interval,mean_load,sleeping,woken,migrations,dispatched,rejected,sla_violations,overload_fraction,total_power_w,interval_energy_j")
	} else {
		fmt.Fprintf(stdout, "%-8s %-8s %-9s %-10s %-10s %-9s %-6s %-10s\n",
			"interval", "load", "sleeping", "migrations", "dispatched", "rejected", "SLA", "power(W)")
	}
	for _, s := range run.Stats {
		if csv {
			fmt.Fprintf(stdout, "%d,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.1f,%.1f\n",
				s.Index, float64(s.MeanLoad), s.Sleeping, s.Woken, s.Migrations,
				s.Dispatched, s.Rejected, s.SLAViolations, s.OverloadFraction,
				float64(s.TotalPower), float64(s.IntervalEnergy))
		} else {
			fmt.Fprintf(stdout, "%-8d %-8.3f %-9d %-10d %-10d %-9d %-6d %-10.0f\n",
				s.Index, float64(s.MeanLoad), s.Sleeping, s.Migrations,
				s.Dispatched, s.Rejected, s.SLAViolations, float64(s.TotalPower))
		}
	}

	fmt.Fprintf(stderr,
		"\nfarm (%d clusters × %d servers, %s dispatch): total energy: %v  migrations: %d  wakes: %d  sleeping at end: %d  dispatched: %d  rejected: %d\n",
		run.Clusters, run.Size, run.Dispatch, units.Joules(run.Energy), run.Migrations, run.Wakes,
		run.Sleeping, run.Dispatched, run.Rejected)
	if churn {
		fmt.Fprintf(stderr,
			"churn: failures: %d  repairs: %d  apps replaced: %d  apps lost: %d\n",
			run.Failures, run.Repairs, run.AppsReplaced, run.AppsLost)
	}
}
