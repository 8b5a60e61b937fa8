package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/farm"
	"ealb/internal/server"
	"ealb/internal/stats"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// simCase is one ealb-sim invocation, spelled out field by field so the
// reference below can rebuild it without the flag layer.
type simCase struct {
	size, intervals, clusters int
	load, sleep, dispatch     string
	seed                      uint64
	mtbf, mttr, arrivals      float64
	csv                       bool
}

func (c simCase) args() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	a := []string{
		"-size", strconv.Itoa(c.size), "-intervals", strconv.Itoa(c.intervals),
		"-load", c.load, "-sleep", c.sleep, "-seed", strconv.FormatUint(c.seed, 10),
		"-mtbf", f(c.mtbf), "-mttr", f(c.mttr),
	}
	if c.clusters > 1 {
		a = append(a, "-clusters", strconv.Itoa(c.clusters), "-dispatch", c.dispatch, "-arrivals", f(c.arrivals))
	}
	if c.csv {
		a = append(a, "-csv")
	}
	return a
}

// reference renders c the way ealb-sim did before it ran on the engine:
// a cluster or farm built and driven directly, its totals summed from
// the interval records it returns.
func reference(t *testing.T, c simCase) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	band := map[string]workload.Band{"low": workload.LowLoad(), "high": workload.HighLoad()}[c.load]
	cfg := cluster.DefaultConfig(c.size, band, c.seed)
	cfg.Sleep = map[string]cluster.SleepPolicy{
		"auto": cluster.SleepAuto, "c3": cluster.SleepC3Only, "c6": cluster.SleepC6Only, "never": cluster.SleepNever,
	}[c.sleep]
	if c.mtbf > 0 {
		cfg.MTBF, cfg.MTTR = units.Seconds(c.mtbf), units.Seconds(c.mttr)
	}
	ctx := context.Background()

	if c.clusters > 1 {
		fcfg := farm.DefaultConfig(c.clusters, c.size, band, c.seed)
		dispatch, err := farm.ParseDispatch(c.dispatch)
		if err != nil {
			t.Fatal(err)
		}
		fcfg.Dispatch, fcfg.Cluster = dispatch, cfg
		if c.arrivals >= 0 {
			fcfg.ArrivalRate = c.arrivals
		}
		f, err := farm.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := f.RunIntervals(ctx, c.intervals, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.csv {
			fmt.Fprintln(&stdout, "interval,mean_load,sleeping,woken,migrations,dispatched,rejected,sla_violations,overload_fraction,total_power_w,interval_energy_j")
			for _, s := range stats {
				fmt.Fprintf(&stdout, "%d,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.1f,%.1f\n",
					s.Index, float64(s.MeanLoad), s.Sleeping, s.Woken, s.Migrations,
					s.Dispatched, s.Rejected, s.SLAViolations, s.OverloadFraction,
					float64(s.TotalPower), float64(s.IntervalEnergy))
			}
		} else {
			fmt.Fprintf(&stdout, "%-8s %-8s %-9s %-10s %-10s %-9s %-6s %-10s\n",
				"interval", "load", "sleeping", "migrations", "dispatched", "rejected", "SLA", "power(W)")
			for _, s := range stats {
				fmt.Fprintf(&stdout, "%-8d %-8.3f %-9d %-10d %-10d %-9d %-6d %-10.0f\n",
					s.Index, float64(s.MeanLoad), s.Sleeping, s.Migrations,
					s.Dispatched, s.Rejected, s.SLAViolations, float64(s.TotalPower))
			}
		}
		var sum farm.IntervalStats
		for _, s := range stats {
			sum.Migrations += s.Migrations
			sum.Woken += s.Woken
			sum.Dispatched += s.Dispatched
			sum.Rejected += s.Rejected
			sum.Failures += s.Failures
			sum.Repairs += s.Repairs
			sum.AppsReplaced += s.AppsReplaced
			sum.AppsLost += s.AppsLost
		}
		fmt.Fprintf(&stderr,
			"\nfarm (%d clusters × %d servers, %s dispatch): total energy: %v  migrations: %d  wakes: %d  sleeping at end: %d  dispatched: %d  rejected: %d\n",
			c.clusters, c.size, dispatch, f.TotalEnergy(), sum.Migrations, sum.Woken,
			stats[len(stats)-1].Sleeping, sum.Dispatched, sum.Rejected)
		if c.mtbf > 0 {
			fmt.Fprintf(&stderr, "churn: failures: %d  repairs: %d  apps replaced: %d  apps lost: %d\n",
				sum.Failures, sum.Repairs, sum.AppsReplaced, sum.AppsLost)
		}
		return stdout.String(), stderr.String()
	}

	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := cl.RunIntervals(ctx, c.intervals)
	if err != nil {
		t.Fatal(err)
	}
	if c.csv {
		fmt.Fprintln(&stdout, "interval,ratio,local,incluster,migrations,sleeping,woken,sla_violations,cluster_load,interval_energy_j,avg_q_j,avg_p_j,avg_j_j")
		for _, s := range sts {
			fmt.Fprintf(&stdout, "%d,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.1f,%.2f,%.2f,%.4f\n",
				s.Index, s.Ratio, s.Decisions.Local, s.Decisions.InCluster,
				s.Migrations, s.Sleeping, s.Woken, s.SLAViolations,
				float64(s.ClusterLoad), float64(s.IntervalEnergy),
				float64(s.AvgQCost), float64(s.AvgPCost), float64(s.AvgJCost))
		}
	} else {
		fmt.Fprintf(&stdout, "%-8s %-8s %-7s %-10s %-10s %-9s %-6s %-8s\n",
			"interval", "ratio", "local", "in-cluster", "migrations", "sleeping", "SLA", "load")
		for _, s := range sts {
			fmt.Fprintf(&stdout, "%-8d %-8.3f %-7d %-10d %-10d %-9d %-6d %-8.3f\n",
				s.Index, s.Ratio, s.Decisions.Local, s.Decisions.InCluster,
				s.Migrations, s.Sleeping, s.SLAViolations, float64(s.ClusterLoad))
		}
	}
	var sum cluster.IntervalStats
	ratios := make([]float64, len(sts))
	for i, s := range sts {
		sum.Migrations += s.Migrations
		sum.Woken += s.Woken
		sum.Failures += s.Failures
		sum.Repairs += s.Repairs
		sum.AppsReplaced += s.AppsReplaced
		sum.AppsLost += s.AppsLost
		ratios[i] = s.Ratio
	}
	fmt.Fprintf(&stderr,
		"\ntotal energy: %v  migrations: %d  wakes: %d  sleeping at end: %d  mean ratio: %.4f (std %.4f)\n",
		cl.TotalEnergy(), sum.Migrations, sum.Woken, cl.SleepingCount(),
		stats.Mean(ratios), stats.SampleStdDev(ratios))
	if c.mtbf > 0 {
		failed := 0
		for id := 0; id < c.size; id++ {
			if cl.Failed(server.ID(id)) {
				failed++
			}
		}
		fmt.Fprintf(&stderr,
			"churn: failures: %d  repairs: %d  apps replaced: %d  apps lost: %d  failed at end: %d\n",
			sum.Failures, sum.Repairs, sum.AppsReplaced, sum.AppsLost, failed)
	}
	return stdout.String(), stderr.String()
}

// TestMatchesDirectRun: ealb-sim on the engine prints byte for byte what
// the direct cluster and farm path prints, churned or not.
func TestMatchesDirectRun(t *testing.T) {
	cases := map[string]simCase{
		"cluster": {size: 100, intervals: 12, load: "high", sleep: "auto", seed: 42, mttr: 300, arrivals: -1},
		"churned cluster": {size: 120, intervals: 15, load: "low", sleep: "c6", seed: 5,
			mtbf: 900, mttr: 120, arrivals: -1, csv: true},
		"farm": {size: 50, intervals: 10, clusters: 3, load: "low", sleep: "auto", dispatch: "least-loaded",
			seed: 2014, mttr: 300, arrivals: 5},
		"churned farm": {size: 60, intervals: 10, clusters: 2, load: "high", sleep: "c3", dispatch: "energy-headroom",
			seed: 3, mtbf: 1200, mttr: 300, arrivals: -1, csv: true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args(), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			wantOut, wantErr := reference(t, c)
			if stdout.String() != wantOut {
				t.Errorf("stdout differs from the direct run:\n got\n%s\n want\n%s", stdout.String(), wantOut)
			}
			if stderr.String() != wantErr {
				t.Errorf("stderr differs from the direct run:\n got %q\n want %q", stderr.String(), wantErr)
			}
			if c.mtbf > 0 && !strings.Contains(wantErr, "churn:") {
				t.Errorf("churned case printed no churn summary: %q", wantErr)
			}
		})
	}
}

// TestRejectsBadFlags: every invocation the scenario checks refuse, or
// that would silently run a default in place of what was asked, exits
// non-zero.
func TestRejectsBadFlags(t *testing.T) {
	// The later flag wins, so each case overrides the valid base run.
	base := []string{"-size", "50", "-intervals", "2"}
	var stdout, stderr bytes.Buffer
	if code := run(base, &stdout, &stderr); code != 0 {
		t.Fatalf("base run %v: exit %d: %s", base, code, stderr.String())
	}
	for _, args := range [][]string{
		{"-size", "0"},
		{"-size", "1"},
		{"-size", "100001"},
		{"-intervals", "0"},
		{"-intervals", "-2"},
		{"-clusters", "0"},
		{"-mtbf", "-1"},
		{"-mtbf", "60", "-mttr", "0"},
		{"-dispatch", "least-loaded"},
		{"-arrivals", "5"},
		{"-load", "medium"},
		{"-sleep", "sometimes"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(base, args...), &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want an error\nstdout: %s", args, stdout.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: refused run wrote %q to stdout", args, stdout.String())
		}
	}
}

// TestRefusesNonFiniteRates: a NaN or infinite rate flag is refused
// with the scenario check's message, never run: a NaN arrival rate
// would spin the farm's Poisson draw forever.
func TestRefusesNonFiniteRates(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-clusters", "2", "-arrivals", "NaN"},
			"ealb-sim: sweep cell 0: engine: farm scenario needs 0 <= arrival_rate <= 100000, got NaN\n"},
		{[]string{"-clusters", "2", "-arrivals", "+Inf"},
			"ealb-sim: sweep cell 0: engine: farm scenario needs 0 <= arrival_rate <= 100000, got +Inf\n"},
		{[]string{"-mtbf", "NaN"},
			"ealb-sim: sweep cell 0: engine: cluster scenario needs finite mtbf/mttr, got NaN/300\n"},
		{[]string{"-clusters", "2", "-mtbf", "600", "-mttr", "Inf"},
			"ealb-sim: sweep cell 0: engine: farm scenario needs finite mtbf/mttr, got 600/+Inf\n"},
	} {
		args := append([]string{"-size", "50", "-intervals", "2"}, tc.args...)
		var stdout, stderr bytes.Buffer
		code := make(chan int, 1)
		go func() { code <- run(args, &stdout, &stderr) }()
		select {
		case c := <-code:
			if c != 1 || stderr.String() != tc.want || stdout.Len() != 0 {
				t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q",
					tc.args, c, stderr.String(), stdout.String(), tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: still running after 10 s", tc.args)
		}
	}
}
