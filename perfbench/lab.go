package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lab"
	"repro/internal/obs"
)

// Lab experiment sizes: the `sammy-eval fig4|fig7|fig8|ablation` defaults.
var labBursts = []int{4, 8, 16, 24, 32, 40}

const (
	labFig4Chunks     = 40
	labFlowChunks     = 90
	labVideoChunks    = 15
	labVideoTrials    = 4
	labAblationChunks = 20
	labWarmupChunks   = 5
)

// labRun is one regeneration of the lab figures.
type labRun struct {
	wallS  float64
	partS  map[string]float64 // per figure
	fig4   []lab.BurstPoint
	fig7   [2]lab.SingleFlowResult // control, sammy
	fig8   [4]lab.NeighborResult   // UDP delay, TCP throughput, HTTP response, video play delay
	ablate []lab.LimiterResult
}

// labIteration regenerates Figs 4, 7, 8 and the limiter ablation.
func labIteration(seed int64) *labRun {
	run := &labRun{partS: map[string]float64{}}
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		run.partS[name] = time.Since(t0).Seconds()
	}
	t0 := time.Now()
	timed("fig4", func() { run.fig4 = lab.BurstSizeExperiment(labBursts, labFig4Chunks, seed) })
	timed("fig7", func() {
		run.fig7[0] = lab.SingleFlow(lab.ControlController(), labFlowChunks, seed)
		run.fig7[1] = lab.SingleFlow(lab.SammyController(), labFlowChunks, seed)
	})
	timed("fig8", func() {
		run.fig8[0] = lab.UDPNeighbor(labFlowChunks, seed)
		run.fig8[1] = lab.TCPNeighbor(labFlowChunks, seed)
		run.fig8[2] = lab.HTTPNeighbor(labFlowChunks, seed)
		run.fig8[3] = lab.VideoNeighbor(labVideoChunks, labVideoTrials, seed)
	})
	timed("ablation", func() { run.ablate = lab.AblationLimiters(labAblationChunks, seed) })
	run.wallS = time.Since(t0).Seconds()
	return run
}

// summary renders the figures' numbers, which a fixed seed reproduces
// exactly.
func (r *labRun) summary() string {
	var sb strings.Builder
	for _, p := range r.fig4 {
		fmt.Fprintf(&sb, "fig4 burst %2d: retx %.6f, throughput %v, VMAF %.3f\n", p.Burst, p.RetxFraction, p.Throughput, p.VMAF)
	}
	for i, name := range []string{"control", "sammy"} {
		f := r.fig7[i]
		fmt.Fprintf(&sb, "fig7 %-7s: mean RTT %.4f ms, retx %.6f\n", name, f.RTT.Mean(), f.Retransmit)
	}
	for i, name := range []string{"UDP delay ms", "TCP Mbps", "HTTP response ms", "video play delay ms"} {
		n := r.fig8[i]
		fmt.Fprintf(&sb, "fig8 %-19s: control %.4f, sammy %.4f (%+.1f%%)\n", name, n.Control, n.Sammy, n.ImprovementPct())
	}
	for _, a := range r.ablate {
		fmt.Fprintf(&sb, "ablation %-13s: retx %.6f, throughput %v, median RTT %.3f ms\n", a.Name, a.RetxFraction, a.Throughput, a.MeanRTTms)
	}
	return sb.String()
}

// gate checks the lab shapes in EXPERIMENTS.md: Sammy's Fig 7 RTT is below
// control's, every Fig 8 neighbor improves, and Fig 4 retransmits fall as
// the burst shrinks. It returns how many of the checked experiments failed.
func (r *labRun) gate(rep *report) int {
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		rep.failf(format, args...)
	}
	if c, s := r.fig7[0].RTT.Mean(), r.fig7[1].RTT.Mean(); !(s < c) {
		fail("lab: fig7 Sammy mean RTT %.3f ms is not below control's %.3f ms", s, c)
	}
	for i, name := range []string{"UDP delay", "TCP throughput", "HTTP response time", "video play delay"} {
		n := r.fig8[i]
		better := n.Sammy < n.Control
		if i == 1 { // throughput: higher is better
			better = n.Sammy > n.Control
		}
		if !better {
			fail("lab: fig8 neighbor %s does not improve: control %.3f, sammy %.3f", name, n.Control, n.Sammy)
		}
	}
	// fig4 lists the unpaced control first, then bursts ascending.
	paced := r.fig4[1:]
	for i := 1; i < len(paced); i++ {
		if paced[i-1].RetxFraction > paced[i].RetxFraction {
			fail("lab: fig4 retransmits rise as the burst shrinks from %d to %d (%.6f > %.6f)",
				paced[i].Burst, paced[i-1].Burst, paced[i-1].RetxFraction, paced[i].RetxFraction)
			break
		}
	}
	if first, last := paced[0], paced[len(paced)-1]; !(first.RetxFraction < last.RetxFraction) {
		fail("lab: fig4 burst %d retransmits %.6f are not below burst %d's %.6f",
			first.Burst, first.RetxFraction, last.Burst, last.RetxFraction)
	}
	return failed
}

// labExperiments counts the experiments one lab iteration checks: Fig 7,
// four Fig 8 neighbors and Fig 4.
const labExperiments = 6

func runLab(o options) (*report, error) {
	rep := newReport()
	// Set-up: a short single-flow warm-up on a fresh lab topology.
	warmup := func() error {
		lab.SingleFlow(lab.SammyController(), labWarmupChunks, o.seed)
		return nil
	}
	var setup setupTimes
	for i := 0; i < setupReps; i++ {
		setup.add(warmup)
	}

	var first string
	var walls []float64
	check := func(run *labRun) {
		rep.attempted += labExperiments
		rep.failed += int64(run.gate(rep))
		s := run.summary()
		if first == "" {
			first = s
			fmt.Fprint(o.log, s)
		} else if s != first {
			rep.failf("lab: figures changed between iterations of the same seed")
		}
	}

	if !o.trace {
		repeatFor(o.seconds, func(int) bool {
			run := labIteration(o.seed)
			check(run)
			walls = append(walls, run.wallS)
			setup.add(warmup)
			return rep.gateErr == nil
		})
		rep.metrics["setup_s"] = median(setup)
		if rep.gateErr == nil {
			rep.metrics["peak_heap_MB"] = peakLiveHeapMB(func() { check(labIteration(o.seed)) })
		}
		rep.metrics["wall_s"] = median(walls)
		fmt.Fprintf(o.log, "lab: %s per regeneration of figs 4, 7, 8 and the ablation\n", quartiles(walls))
		return rep, nil
	}

	// Traced: alternate untraced runs with runs under an obs registry, which
	// the simulator and TCP layers attach their counters to.
	var traced []*labRun
	var reg *obs.Registry
	repeatFor(o.seconds, func(i int) bool {
		for _, tr := range pairOrder(i) {
			if tr {
				reg = obs.NewRegistry()
				obs.SetDefault(reg)
				run := labIteration(o.seed)
				obs.SetDefault(nil)
				check(run)
				traced = append(traced, run)
			} else {
				run := labIteration(o.seed)
				check(run)
				walls = append(walls, run.wallS)
			}
		}
		return rep.gateErr == nil
	})
	if rep.gateErr != nil {
		return rep, nil
	}
	// The counters of the last traced iteration.
	last := traced[len(traced)-1]
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	m := rep.metrics
	lg := &ledger{workers: 1, e2eS: last.wallS}
	for _, fig := range []string{"fig4", "fig7", "fig8", "ablation"} {
		m["lab."+fig+"_s"] = last.partS[fig]
		lg.add("lab."+fig, 1, last.partS[fig], false)
	}
	events := counter("sim_events_dispatched")
	m["sim.events"] = events
	m["sim.event_ns"] = last.wallS * 1e9 / events
	m["sim.packets"] = counter("sim_link_sent_packets")
	m["sim.drops"] = counter("sim_link_dropped_packets")
	m["tcp.segments"] = counter("tcp_segments_sent")
	m["tcp.retransmits"] = counter("tcp_retransmits")
	rep.ledger = lg
	m["ledger.residual_frac"] = lg.residualFrac()
	var tracedWalls []float64
	for _, t := range traced {
		tracedWalls = append(tracedWalls, t.wallS)
	}
	m["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	return rep, nil
}
