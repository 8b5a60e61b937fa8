// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload in this process, on one core, and prints its
// metrics as a JSON object on the last line of standard output:
//
//	perfbench --workload serve-sweep --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the run carries no timing wrappers and reports the
// end-to-end metrics. With --trace 1 it runs half the window untraced
// and half through the timing wrappers of every layer, and reports the
// per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each --workload name to its run function.
var workloads = map[string]func(cfg config) (*outcome, error){
	"serve-sweep":  runServeSweep,
	"serve-read":   runServeRead,
	"cluster-100k": runCluster100k,
}

// config is one run's command line.
type config struct {
	seed    uint64
	window  time.Duration
	traced  bool
	workdir string
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-sweep, serve-read or cluster-100k")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for the run's disk stores; removed at exit")
	readStoreDir := flag.String("generate-read-store", "", "generate serve-read's store from --seed in this directory, print it as JSON and exit")
	flag.Parse()

	if *readStoreDir != "" {
		rs, err := generateReadStore(*readStoreDir, *seed)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: generating the serve-read store: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (serve-sweep, serve-read or cluster-100k), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		workdir: *workdir,
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if rerr := os.RemoveAll(cfg.workdir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s  seed %d  window %v  trace %d  GOMAXPROCS %d\n",
		*name, cfg.seed, cfg.window, *traced, runtime.GOMAXPROCS(0))
	for _, line := range out.notes {
		fmt.Println(line)
	}
	for _, k := range sortedKeys(out.metrics) {
		m := out.metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: op accounting, the metrics
// for the requested mode, and human-readable notes printed above the
// JSON line.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	o.metrics[name] = metric{value, unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics}
}

// opRecord is one timed op. err is set when the op failed, either
// while it ran or when its output was checked afterwards. wall and cpu
// are the window's time and CPU used up to the end of this op, output
// checks excluded.
type opRecord struct {
	start, end time.Time
	err        error
	wall, cpu  time.Duration
}

func (r opRecord) dur() time.Duration { return r.end.Sub(r.start) }

// windowStats is what one timed window measured around its ops. The
// time, CPU and allocations of the output checks are not counted.
type windowStats struct {
	ops        []opRecord
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

// opFunc performs op i. The op's time ends when it returns; the check
// it returns then inspects the op's output outside that time.
type opFunc func(i int) (check func() error, err error)

// timeWindow runs op back to back, one at a time, until d has passed.
// A closed loop with one client: the next op starts when the last one
// and its check return.
func timeWindow(d time.Duration, op opFunc) windowStats {
	var w windowStats
	var checkWall, checkCPU time.Duration
	var checkAlloc uint64
	cpu0, alloc0, gc0 := cpuTime(), heapAllocs(), gcCycles()
	t0 := time.Now()
	for i := 0; time.Since(t0) < d; i++ {
		start := time.Now()
		check, err := op(i)
		end := time.Now()
		if err == nil && check != nil {
			c0, a0 := cpuTime(), heapAllocs()
			err = check()
			checkCPU += cpuTime() - c0
			checkAlloc += heapAllocs() - a0
			checkWall += time.Since(end)
		}
		w.ops = append(w.ops, opRecord{start: start, end: end, err: err,
			wall: time.Since(t0) - checkWall, cpu: cpuTime() - cpu0 - checkCPU})
	}
	w.elapsed = time.Since(t0) - checkWall
	w.cpu = cpuTime() - cpu0 - checkCPU
	w.allocBytes = heapAllocs() - alloc0 - checkAlloc
	w.gcCycles = gcCycles() - gc0
	return w
}

// fail marks op i failed unless it already is.
func (w *windowStats) fail(i int, err error) {
	if w.ops[i].err == nil {
		w.ops[i].err = err
	}
}

// account adds the window's ops to the outcome's attempt and failure
// counts and notes the first failure.
func (w *windowStats) account(o *outcome) {
	for _, r := range w.ops {
		o.attempted++
		if r.err != nil {
			if o.failed == 0 {
				o.notef("first failed op: %v", r.err)
			}
			o.failed++
		}
	}
}

func (w *windowStats) okOps() int {
	n := 0
	for _, r := range w.ops {
		if r.err == nil {
			n++
		}
	}
	return n
}

// windowSlices is how many runs of consecutive ops a window is split
// into for ops_per_s and cpu_ms_per_op, which report the median slice.
// A whole-window mean moves with every stall the host imposes on the
// run; in ten runs of serve-read it spread 0.18-0.21 against 0.10-0.12
// for the median op time.
const windowSlices = 10

// sliceRates splits the window's ops into up to windowSlices runs of
// consecutive ops and returns, for each, the completed ops per second
// and the CPU ms per completed op.
func (w *windowStats) sliceRates() (perS, cpuMS []float64) {
	n := min(windowSlices, len(w.ops))
	var wall0, cpu0 time.Duration
	for k := range n {
		ops := w.ops[k*len(w.ops)/n : (k+1)*len(w.ops)/n]
		ok := 0
		for _, r := range ops {
			if r.err == nil {
				ok++
			}
		}
		last := ops[len(ops)-1]
		perS = append(perS, float64(ok)/(last.wall-wall0).Seconds())
		cpuMS = append(cpuMS, ms(last.cpu-cpu0)/float64(max(ok, 1)))
		wall0, cpu0 = last.wall, last.cpu
	}
	return perS, cpuMS
}

// opMillis returns every op's duration in ms. A failed op counts as
// slower than any op could be, the whole window, so failures never read
// as fast ops.
func (w *windowStats) opMillis() []float64 {
	out := make([]float64, len(w.ops))
	for i, r := range w.ops {
		d := r.dur()
		if r.err != nil {
			d = w.elapsed
		}
		out[i] = ms(d)
	}
	return out
}

// endToEnd sets the five end-to-end metrics from the set-up times, the
// resident set after each set-up and the untraced window, and notes the
// tail percentiles as diagnostics.
func endToEnd(o *outcome, setups []time.Duration, rssMB []float64, w windowStats, workPerOp string) {
	lat := w.opMillis()
	ok := w.okOps()
	o.set("setup_s", median(seconds(setups)), "s")
	o.set("op_p50_ms", median(lat), "ms")
	perS, cpuMS := w.sliceRates()
	o.set("ops_per_s", median(perS), "1/s")
	o.set("cpu_ms_per_op", median(cpuMS), "ms")
	o.set("setup_rss_mb", median(rssMB), "MB")
	o.notef("set-up: median of %d: %s", len(setups), formatSeconds(setups))
	o.notef("resident set after set-up: median of %d: %s MB", len(rssMB), formatFloats(rssMB))
	o.notef("ops: %d in %.2fs (output checks excluded), %d failed; work per op: %s", len(w.ops), w.elapsed.Seconds(), len(w.ops)-ok, workPerOp)
	o.notef("op latency: %s", tailSummary(lat))
	o.notef("ops per second, median of %d slices: %s; whole window %.4g", len(perS), formatFloats(perS), float64(ok)/w.elapsed.Seconds())
	o.notef("CPU ms per op, median of %d slices: %s; whole window %.4g", len(cpuMS), formatFloats(cpuMS), ms(w.cpu)/float64(max(ok, 1)))
}

// tailSummary reports the median, p90 and the highest of p99 and p99.9
// that has at least ten samples beyond it, with those counts.
func tailSummary(v []float64) string {
	s := fmt.Sprintf("p50 %.4g ms (n=%d)", median(v), len(v))
	for _, p := range []float64{0.90, 0.99, 0.999} {
		beyond := int(float64(len(v)) * (1 - p))
		if beyond < 10 {
			break
		}
		s += fmt.Sprintf(", p%s %.4g ms (%d beyond)", strconv.FormatFloat(p*100, 'f', -1, 64), quantile(v, p), beyond)
	}
	return s
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func formatSeconds(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4fs", d.Seconds())
	}
	return strings.Join(parts, " ")
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() uint64 { return readRuntimeMetric("/gc/heap/allocs:bytes") }

// gcCycles returns the GC cycles completed since the process started.
func gcCycles() uint64 { return readRuntimeMetric("/gc/cycles/total:gc-cycles") }

func readRuntimeMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settle runs a full collection and returns free memory to the OS. Run
// before each set-up, with the previous set-up's objects unreachable,
// it lets every set-up start from the same heap: otherwise the
// collector's timing decides how much of the old garbage the new
// objects are interleaved with, and the resident set after set-up
// varies by several MB from run to run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// settledRSS returns the process's resident set in MB after a full
// collection has returned free memory to the OS, so garbage left by
// set-up does not count.
func settledRSS() (float64, error) {
	settle()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading resident set size: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS line in /proc/self/status")
}
