// Command perfbench is the repository benchmark. It drives four closed-loop
// workloads through the packages' public entry points and prints one JSON
// result line:
//
//	perfbench --workload <population|table2|lab|edge> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics (tracing off); with
// --trace 1 it reports the per-layer metrics, measured by timing decorators
// at the pluggable interfaces and by exact replays of recorded call
// sequences, plus a ledger of Σ(count × unit cost) against the measured
// end-to-end time. Every run first passes the workload's correctness gate;
// a failed gate prints "correct": false with no metrics and exits 1.
//
// README.md lists every metric, its unit, and the end-to-end metric each
// layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// options is one invocation's parsed flags.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workers bounds worker goroutines and client connections.
	workers int
	// workDir holds checkpoint directories and other run-local files.
	workDir string
	// log receives the human-readable report lines.
	log io.Writer
}

// report is what a workload hands back: its metrics, operation counts and
// the gate verdict.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// gateErr is the first correctness-gate failure; nil when every output
	// checked out.
	gateErr error
	ledger  *ledger
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// failf records a gate failure (the first one wins).
func (r *report) failf(format string, args ...any) {
	if r.gateErr == nil {
		r.gateErr = fmt.Errorf(format, args...)
	}
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"population": runPopulation,
	"table2":     runTable2,
	"lab":        runLab,
	"edge":       runEdge,
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: population, table2, lab or edge")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		workers: benchWorkers(),
		log:     os.Stdout,
	}
	runtime.GOMAXPROCS(opts.workers)
	err := os.MkdirAll(workRoot, 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(workRoot, *workload+"-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	opts.workDir = dir
	code := execute(*workload, run, opts, os.Stdout)
	os.RemoveAll(dir)
	os.Exit(code)
}

// workRoot holds each run's checkpoint directories and scratch files,
// relative to the directory the benchmark runs from.
const workRoot = ".bench_build/work"

// benchWorkers is the worker-goroutine and connection count: the core
// count, capped at 2 so runs on bigger machines stay comparable with the
// 2-core reference box.
func benchWorkers() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// execute runs one workload, prints provenance, the ledger and the result
// line to out, and returns the exit code.
func execute(name string, run func(options) (*report, error), opts options, out io.Writer) int {
	fmt.Fprintf(out, "provenance %s\n", provenanceJSON(name, opts))
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res := result{Correct: rep.gateErr == nil, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	if rep.attempted < 1 {
		res.Correct = false
		rep.failf("no operation attempted")
	}
	if res.Correct {
		if rep.ledger != nil {
			rep.ledger.print(out)
		}
		for _, m := range catalog {
			if m.layer != opts.trace {
				continue
			}
			v, ok := rep.metrics[m.name]
			if !ok && !m.layer {
				// An end-to-end metric every workload must produce.
				res.Correct = false
				rep.failf("workload did not measure %s", m.name)
				break
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	if !res.Correct {
		fmt.Fprintf(out, "correctness gate failed: %v\n", rep.gateErr)
		res.Metrics = map[string]metricValue{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricDef is one catalog entry. layer=false marks an end-to-end metric.
type metricDef struct {
	name   string
	unit   string
	better string
	layer  bool
}

// catalog lists every metric the benchmark reports, in BENCHMARK.json order.
// Per-layer metrics a workload does not exercise read 0.
var catalog = []metricDef{
	{"setup_s", "s", "lower", false},
	{"wall_s", "s", "lower", false},
	{"peak_heap_MB", "MB", "lower", false},

	{"netmodel.downloads", "count", "lower", true},
	{"netmodel.download_ns", "ns", "lower", true},
	{"netmodel.busy_s", "s", "lower", true},
	{"abr.decisions", "count", "lower", true},
	{"abr.decide_ns", "ns", "lower", true},
	{"abr.busy_s", "s", "lower", true},
	{"player.sessions", "count", "lower", true},
	{"player.session_us", "us", "lower", true},
	{"player.self_s", "s", "lower", true},
	{"abtest.gen_s", "s", "lower", true},
	{"abtest.sketch_adds", "count", "lower", true},
	{"abtest.sketch_add_ns", "ns", "lower", true},
	{"abtest.sketch_merges", "count", "lower", true},
	{"abtest.sketch_merge_us", "us", "lower", true},
	{"abtest.checkpoint_writes", "count", "lower", true},
	{"abtest.checkpoint_write_ms", "ms", "lower", true},
	{"abtest.checkpoint_bytes", "B", "lower", true},
	{"abtest.checkpoint_read_ms", "ms", "lower", true},
	{"stats.bootstrap_s", "s", "lower", true},
	{"stats.welch_ms", "ms", "lower", true},
	{"lab.fig4_s", "s", "lower", true},
	{"lab.fig7_s", "s", "lower", true},
	{"lab.fig8_s", "s", "lower", true},
	{"lab.ablation_s", "s", "lower", true},
	{"sim.events", "count", "lower", true},
	{"sim.event_ns", "ns", "lower", true},
	{"sim.packets", "count", "lower", true},
	{"sim.drops", "count", "lower", true},
	{"tcp.segments", "count", "lower", true},
	{"tcp.retransmits", "count", "lower", true},
	{"overload.admit_us_p50", "us", "lower", true},
	{"overload.admit_us_p99", "us", "lower", true},
	{"overload.shed", "count", "lower", true},
	{"cdn.serve_ms_p50", "ms", "lower", true},
	{"cdn.bytes", "B", "lower", true},
	{"pacing.wakeups", "count", "lower", true},
	{"pacing.releases_per_chunk", "1/chunk", "lower", true},
	{"client.ttfb_ms_p50", "ms", "lower", true},
	{"client.retries", "count", "lower", true},
	{"edge.pace_attained_p50", "ratio", "higher", true},
	{"edge.pace_attained_p10", "ratio", "higher", true},
	{"edge.pace_attained_4k_p50", "ratio", "higher", true},
	{"ledger.residual_frac", "frac", "lower", true},
	{"trace.overhead_frac", "frac", "lower", true},
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles describes per-iteration wall times for the report lines.
func quartiles(walls []float64) string {
	return fmt.Sprintf("%d iterations, wall p25/p50/p75 %.3f/%.3f/%.3fs",
		len(walls), quantile(walls, 0.25), median(walls), quantile(walls, 0.75))
}

// repeatFor calls fn until d has elapsed, at least once, and returns how
// many times it ran. fn returning false stops the loop early.
func repeatFor(d time.Duration, fn func(i int) bool) int {
	start := time.Now()
	i := 0
	for {
		ok := fn(i)
		i++
		if !ok || time.Since(start) >= d {
			return i
		}
	}
}

// pairOrder gives the order of the untraced (false) and traced (true)
// iteration in pair i of a traced run; alternating it keeps warm-up and
// drift from landing on one side.
func pairOrder(i int) []bool {
	if i%2 == 1 {
		return []bool{true, false}
	}
	return []bool{false, true}
}

// setupTimes collects set-up durations; setup_s is their median. A run
// times setupReps set-ups before its timed phase and one more after each
// timed iteration, so the median spans the run: on a host whose speed
// drifts over seconds, a burst of sub-millisecond set-ups would measure
// only the moment it ran in.
type setupTimes []float64

const setupReps = 5

// add times one set-up, after a garbage collection.
func (s *setupTimes) add(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	*s = append(*s, time.Since(t0).Seconds())
	return nil
}
