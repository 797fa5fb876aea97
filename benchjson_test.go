package repro

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/loadgen"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// This file is the benchmark-regression harness: suites sized to the event
// core's layers (bare scheduler, one TCP flow, a reduced-scale Table 2
// population run, and the Fig 4 burst sweep with CBR cross traffic from
// bench_test.go), and an emitter that records them to
// BENCH_sim.json. CI reruns the emitter and gates merges with
// cmd/benchcheck against BENCH_baseline.json.

// BenchmarkScheduler measures the bare event loop: schedule-dispatch cycles
// with a warm event pool. The steady state is allocation-free.
func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			s.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.Schedule(0, tick)
	s.Run()
}

// singleTCPFlow runs one complete 10 MB transfer over the paper's lab path
// (40 Mbps bottleneck, 5 ms RTT, 4 BDP drop-tail queue) on simulator s.
func singleTCPFlow(s *sim.Simulator) {
	const (
		rate = 40 * units.Mbps
		rtt  = 5 * time.Millisecond
	)
	class := sim.NewClassifier()
	bdp := rate.BytesIn(rtt)
	fwd := sim.NewLink(s, sim.LinkConfig{Rate: rate, Delay: rtt / 2, QueueLimit: 4 * bdp}, class)
	c := tcp.NewConn(s, 1, fwd, class, sim.LinkConfig{Rate: 1 * units.Gbps, Delay: rtt / 2}, tcp.Config{})
	c.Fetch(10*units.MB, nil, nil)
	s.Run()
}

// BenchmarkSingleTCPFlow measures simulator cost per simulated bulk
// transfer: every segment and ack crosses the pooled event/packet path.
func BenchmarkSingleTCPFlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		singleTCPFlow(sim.New())
	}
}

// BenchmarkTraceOffSpans measures the disabled-tracing hot path: the exact
// span-call shape the player makes per chunk (session/chunk/fetch spans,
// attributes, an annotation) against a nil Trace, which is what every
// instrumented call site sees when no tracer is installed. The contract is
// zero allocations per op — tracing must be free when off — and benchcheck
// gates it against BENCH_baseline.json like the other zero-alloc suites.
func BenchmarkTraceOffSpans(b *testing.B) {
	b.ReportAllocs()
	var tr *otrace.Trace
	for i := 0; i < b.N; i++ {
		sess := tr.StartAt(0, "player.session", "bench")
		ch := sess.StartChildAt(0, "player.chunk", "").SetAttr("index", float64(i))
		fetch := ch.StartChildAt(0, "tcp.fetch", "")
		fetch.AnnotateAt(0, "pace_rate_mbps", 12)
		fetch.SetAttr("bytes", 1e6).EndAt(time.Second)
		ch.EndAt(time.Second)
		sess.EndAt(2 * time.Second)
	}
}

// measureSimTimeRatio runs the single-flow workload on an instrumented
// simulator and reads back the obs TimeRatio gauge: simulated seconds
// advanced per wall-clock second.
func measureSimTimeRatio() float64 {
	reg := obs.NewRegistry()
	s := sim.New()
	s.SetMetrics(sim.NewMetrics(reg))
	singleTCPFlow(s)
	return reg.Gauge("sim_time_ratio").Value()
}

func toResult(r testing.BenchmarkResult) benchfmt.Result {
	return benchfmt.Result{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		UsersPerSec: r.Extra["users/sec"],
	}
}

// toRateResult keeps only the custom rate metrics of a fixed-window pacing
// suite. ns/op and allocs/op are meaningless there — an "op" is a
// multi-second observation window over 10k live goroutines, so both track
// the window length and GC timing, not any code path benchcheck should
// gate.
func toRateResult(r testing.BenchmarkResult) benchfmt.Result {
	return benchfmt.Result{
		WakeupsPerSec:  r.Extra["wakeups/sec"],
		StreamsPerCore: r.Extra["streams/core"],
		RateErrP99Pct:  r.Extra["rate_err_p99_pct"],
	}
}

// loadgenResult runs the full-scale loadgen proof (50k concurrent paced
// streams against the real cdn.Server over in-memory pipes) and records
// the sustained stream count, p99 rate error, engine wakeup rate and
// streams/core. BENCH_LOADGEN_STREAMS scales it down for constrained
// boxes — but benchcheck holds the committed BENCH_sim.json to the
// baseline's stream count, so the checked-in numbers are always full
// scale.
func loadgenResult(t *testing.T) benchfmt.Result {
	streams := 50_000
	if s := os.Getenv("BENCH_LOADGEN_STREAMS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad BENCH_LOADGEN_STREAMS=%q", s)
		}
		streams = n
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Streams:   streams,
		Rate:      32 * units.Kbps,
		Warmup:    10 * time.Second,
		Duration:  30 * time.Second,
		Transport: "inproc",
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	t.Logf("%s", rep.String())
	if rep.Failed > 0 {
		t.Fatalf("loadgen: %d/%d streams failed", rep.Failed, rep.Streams)
	}
	return benchfmt.Result{
		Streams:        float64(rep.Completed),
		RateErrP99Pct:  rep.ErrP99,
		WakeupsPerSec:  rep.WakeupsPerSec,
		StreamsPerCore: rep.StreamsPerCore,
	}
}

// prePR3Baseline is the perf trajectory anchor: the same suites measured on
// the seed tree immediately before the allocation-free event-core rewrite
// (PR 3). BenchmarkScheduler/SingleTCPFlow did not exist then; their
// entries come from the equivalent internal benchmarks
// (sim.BenchmarkEventLoop, tcp.BenchmarkBulkTransfer).
var prePR3Baseline = map[string]benchfmt.Result{
	"Scheduler":          {NsPerOp: 67.7, AllocsPerOp: 1, BytesPerOp: 32},
	"SingleTCPFlow":      {NsPerOp: 12209399, AllocsPerOp: 69752, BytesPerOp: 3281831},
	"Table2ProductionAB": {NsPerOp: 320555501, AllocsPerOp: 646820, BytesPerOp: 68948674},
}

// TestWriteBenchJSON regenerates BENCH_sim.json. Gated behind BENCH_JSON=1
// because it runs full benchmarks (~10 s); CI runs it and uploads the file
// as an artifact, and cmd/benchcheck gates allocs/op regressions against
// BENCH_baseline.json.
func TestWriteBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_sim.json")
	}
	engine := toRateResult(testing.Benchmark(BenchmarkPacingEngineWakeups10k))
	sleep := toRateResult(testing.Benchmark(BenchmarkPacingSleepWakeups10k))
	var ratio benchfmt.Result
	if engine.WakeupsPerSec > 0 {
		ratio.WakeupRatio = sleep.WakeupsPerSec / engine.WakeupsPerSec
	}
	f := &benchfmt.File{
		Go:      runtime.Version(),
		History: map[string]map[string]benchfmt.Result{"pre_pr3": prePR3Baseline},
		Current: map[string]benchfmt.Result{
			"Scheduler":              toResult(testing.Benchmark(BenchmarkScheduler)),
			"SingleTCPFlow":          toResult(testing.Benchmark(BenchmarkSingleTCPFlow)),
			"Table2ProductionAB":     toResult(testing.Benchmark(BenchmarkTable2ProductionAB)),
			"TraceOffSpans":          toResult(testing.Benchmark(BenchmarkTraceOffSpans)),
			"PopulationSharded":      toResult(testing.Benchmark(BenchmarkPopulationSharded)),
			"Fig4BurstSize":          toResult(testing.Benchmark(BenchmarkFig4BurstSize)),
			"PacingEngineWakeups10k": engine,
			"PacingSleepWakeups10k":  sleep,
			"PacingWakeupRatio10k":   ratio,
			"PacingStreamsPerCore":   toRateResult(testing.Benchmark(BenchmarkPacingStreamsPerCore)),
			"Loadgen50k":             loadgenResult(t),
		},
		SimTimeRatio: measureSimTimeRatio(),
	}
	if err := f.Write("BENCH_sim.json"); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_sim.json (sim_time_ratio = %.0f sim-s/wall-s)", f.SimTimeRatio)
}
