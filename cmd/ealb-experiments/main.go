// Command ealb-experiments regenerates the tables and figures of the
// paper's evaluation section.
//
// Usage:
//
//	ealb-experiments -run figure2            # one experiment
//	ealb-experiments -run all                # everything
//	ealb-experiments -list                   # available experiments
//	ealb-experiments -run table2 -sizes 100,1000 -seed 7 -intervals 40
//	ealb-experiments -run figure2 -parallel 0   # sweep panels on all CPUs
//
// The full paper-scale sweep (cluster size 10^4) takes tens of seconds;
// use -sizes to trim it during development, or -parallel to spread the
// panels over the simulation engine's worker pool (the output is
// bit-identical to a serial run either way).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ealb"
	"ealb/internal/engine"
	"ealb/internal/experiments"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment to run, or 'all'")
		list      = flag.Bool("list", false, "list available experiments and exit")
		seed      = flag.Uint64("seed", ealb.DefaultExperimentOptions().Seed, "simulation seed")
		intervals = flag.Int("intervals", ealb.DefaultExperimentOptions().Intervals, "reallocation intervals per run")
		sizes     = flag.String("sizes", "", "comma-separated cluster sizes (default: 100,1000,10000)")
		csvDir    = flag.String("csvdir", "", "also write per-panel Figure 3 CSVs into this directory")
		parallel  = flag.Int("parallel", 1, "sweep workers: 1 = serial, 0 = one per CPU")
	)
	flag.Parse()

	if *list {
		for _, n := range ealb.ExperimentNames() {
			fmt.Println(n)
		}
		return
	}

	opt := ealb.DefaultExperimentOptions()
	opt.Seed = *seed
	opt.Intervals = *intervals
	opt.Parallel = *parallel
	if *parallel == 0 {
		opt.Parallel = -1 // flag 0 = one worker per CPU
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ealb-experiments:", err)
			os.Exit(2)
		}
		opt.Sizes = parsed
	}

	var err error
	if *run == "all" {
		err = ealb.RunAllExperiments(os.Stdout, opt)
	} else {
		err = ealb.RunExperiment(*run, os.Stdout, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ealb-experiments:", err)
		os.Exit(1)
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, opt); err != nil {
			fmt.Fprintln(os.Stderr, "ealb-experiments:", err)
			os.Exit(1)
		}
	}
}

// writeCSVs exports the per-interval metrics of every (size, band) panel
// for external plotting of Figure 3. The panels come from one figure2
// sweep on a pool of opt.Parallel workers (negative: one per CPU).
func writeCSVs(dir string, opt ealb.ExperimentOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	runs, err := experiments.Figure2On(engine.NewPool(opt.Parallel), opt.Sizes, opt.Seed, opt.Intervals)
	if err != nil {
		return err
	}
	for _, run := range runs {
		name := filepath.Join(dir, fmt.Sprintf("figure3_n%d_load%.0f.csv", run.Size, run.Band.Mean()*100))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := experiments.WriteRatioCSV(f, run); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", name)
	}
	return nil
}

// parseSizes parses the -sizes list. Every size must lie in
// (1, engine.MaxScenarioSize], the bound every panel's sweep enforces.
func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 1 {
			return nil, fmt.Errorf("invalid cluster size %q", p)
		}
		if n > engine.MaxScenarioSize {
			return nil, fmt.Errorf("cluster size %d exceeds the cap of %d servers", n, engine.MaxScenarioSize)
		}
		out = append(out, n)
	}
	return out, nil
}
