package experiments

import (
	"fmt"
	"io"
	"sort"

	"ealb/internal/engine"
	"ealb/internal/policy"
	"ealb/internal/workload"
)

// Options tunes a registry run without changing what it reproduces.
type Options struct {
	Seed      uint64
	Intervals int
	// Sizes overrides the cluster-size sweep (the full 10^4 panel takes
	// tens of seconds; tests use smaller sweeps).
	Sizes []int
	// Parallel is the worker count for sweep dispatch through the
	// engine: 0 (the zero value) and 1 run serially, so Options built
	// by hand keep the pre-engine behavior; negative values use every
	// CPU. Any value produces bit-identical output — panels derive
	// independent random streams and land in order-preserving slots.
	Parallel int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{Seed: DefaultSeed, Intervals: DefaultIntervals, Sizes: PaperSizes, Parallel: 1}
}

// pool builds the engine pool a registry run dispatches its sweeps on.
func (o Options) pool() *engine.Pool {
	switch {
	case o.Parallel < 0:
		return engine.NewPool(0) // one worker per CPU
	case o.Parallel == 0:
		return engine.NewPool(1) // zero value: serial, like pre-engine runs
	default:
		return engine.NewPool(o.Parallel)
	}
}

// Runner executes one experiment and writes its report to w.
type Runner func(w io.Writer, opt Options) error

// Registry maps experiment names (as used by `ealb-experiments -run`) to
// their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": func(w io.Writer, _ Options) error {
			return RenderTable1(w)
		},
		"homogeneous": func(w io.Writer, _ Options) error {
			return RenderHomogeneous(w)
		},
		"figure2": func(w io.Writer, opt Options) error {
			runs, err := Figure2On(opt.pool(), opt.Sizes, opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderFigure2(w, runs)
		},
		"figure3": func(w io.Writer, opt Options) error {
			runs, err := Figure2On(opt.pool(), opt.Sizes, opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderFigure3(w, runs)
		},
		"table2": func(w io.Writer, opt Options) error {
			runs, err := Figure2On(opt.pool(), opt.Sizes, opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderTable2(w, runs)
		},
		"smallclusters": func(w io.Writer, opt Options) error {
			runs, err := SmallClustersOn(opt.pool(), opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderTable2(w, runs)
		},
		"energy": func(w io.Writer, opt Options) error {
			rows, err := EnergySavingsSweepOn(opt.pool(), opt.Sizes, PaperBands, opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderEnergySavings(w, rows)
		},
		"policies": func(w io.Writer, opt Options) error {
			cfg := policy.DefaultFarmConfig()
			cfg.Seed = opt.Seed
			return RenderPolicies(w, cfg)
		},
		"ablation-sleep": func(w io.Writer, opt Options) error {
			size := smallest(opt.Sizes, 1000)
			rows, err := RunSleepAblation(size, workload.LowLoad(), opt.Seed, opt.Intervals)
			if err != nil {
				return err
			}
			return RenderSleepAblation(w, rows)
		},
		"ablation-delta": func(w io.Writer, opt Options) error {
			size := smallest(opt.Sizes, 1000)
			rows, err := RunDeltaAblation(size, workload.LowLoad(), opt.Seed, opt.Intervals,
				0.65, []float64{0.0325, 0.065, 0.13})
			if err != nil {
				return err
			}
			return RenderDeltaAblation(w, rows)
		},
		"ablation-consolidation": func(w io.Writer, opt Options) error {
			return ConsolidationAblation(w, smallest(opt.Sizes, 1000), opt.Seed, opt.Intervals)
		},
		"figure1":    figure1Runner,
		"robustness": robustnessRunner,
		"dvfs": func(w io.Writer, opt Options) error {
			rows, err := RunDVFSStudy()
			if err != nil {
				return err
			}
			return RenderDVFSRows(w, rows)
		},
	}
}

// Names returns the registered experiment names in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by name.
func Run(name string, w io.Writer, opt Options) error {
	r, ok := Registry()[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(w, opt)
}

// RunAll executes every experiment in name order.
func RunAll(w io.Writer, opt Options) error {
	for _, name := range Names() {
		fmt.Fprintf(w, "==================== %s ====================\n", name)
		if err := Run(name, w, opt); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// smallest picks the smallest configured size not above cap (falls back
// to cap when the sweep only has larger entries).
func smallest(sizes []int, cap int) int {
	best := 0
	for _, s := range sizes {
		if s <= cap && s > best {
			best = s
		}
	}
	if best == 0 {
		return cap
	}
	return best
}
