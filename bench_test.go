// Package repro's top-level benchmarks regenerate every table and figure in
// the paper's evaluation at reduced scale, printing the paper-formatted
// rows on the first iteration and reporting the headline numbers as bench
// metrics. cmd/sammy-eval runs the full-size versions.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/trace"
	"repro/internal/units"
)

// benchABConfig is the reduced-scale population used by the A/B benches.
func benchABConfig(seed int64) abtest.Config {
	return abtest.Config{
		Population:       abtest.PopulationConfig{Users: 200, Seed: seed},
		SessionsPerUser:  2,
		ChunksPerSession: 60,
	}
}

// BenchmarkPopulationSharded measures the crash-resumable population
// runner's throughput in users/sec: the same reduced-scale Table 2 workload
// as BenchmarkTable2ProductionAB, streamed through shard-sized sketches
// instead of accumulated records. benchcheck gates the users/sec metric
// against BENCH_baseline.json so the streaming path cannot quietly lose its
// population throughput.
func BenchmarkPopulationSharded(b *testing.B) {
	b.ReportAllocs()
	base := benchABConfig(11)
	cfg := abtest.ShardRunConfig{
		Experiment: base,
		Arms: []abtest.Arm{
			abtest.ControlArm(),
			abtest.SammyArm(core.DefaultC0, core.DefaultC1),
		},
		ShardSize: 50,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := abtest.RunSharded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows := abtest.CompareSketches(res.Arms[1], res.Arms[0])
			fmt.Print(abtest.FormatSketchTable("\nTable 2 (streamed sketches): Sammy vs control", rows))
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(base.Population.Users*b.N)/sec, "users/sec")
	}
}

func rowsByName(rows []abtest.TableRow) map[string]abtest.TableRow {
	m := make(map[string]abtest.TableRow, len(rows))
	for _, r := range rows {
		m[r.Metric] = r
	}
	return m
}

// BenchmarkTable2ProductionAB regenerates Table 2: Sammy vs the production
// control across the population (paper: throughput -61%, retransmits
// -35.5%, RTT -13.7%, QoE maintained).
func BenchmarkTable2ProductionAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := abtest.Run(benchABConfig(11), []abtest.Arm{
			abtest.ControlArm(),
			abtest.SammyArm(core.DefaultC0, core.DefaultC1),
		})
		rows := abtest.Compare(results[1], results[0], 99)
		if i == 0 {
			fmt.Print(abtest.FormatTable("\nTable 2: Sammy vs control (paper: -61 tput, -35.5 retx, -13.7 RTT)", rows))
		}
		m := rowsByName(rows)
		b.ReportMetric(m["ChunkThroughputMbps"].CI.Point, "tputChg%")
		b.ReportMetric(m["RetransmitPct"].CI.Point, "retxChg%")
		b.ReportMetric(m["RTTms"].CI.Point, "rttChg%")
	}
}

// BenchmarkTable3InitialPhaseOnly regenerates Table 3: the initial-phase
// history changes without pacing (paper: initial VMAF +0.3%, play delay
// -0.4%, everything else flat).
func BenchmarkTable3InitialPhaseOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := abtest.Run(benchABConfig(19), []abtest.Arm{
			abtest.ControlArm(),
			abtest.StandardArms()[3],
		})
		rows := abtest.Compare(results[1], results[0], 99)
		if i == 0 {
			fmt.Print(abtest.FormatTable("\nTable 3: initial-only arm vs control (paper: initVMAF +0.3, playDelay -0.4)", rows))
		}
		m := rowsByName(rows)
		b.ReportMetric(m["InitialVMAF"].CI.Point, "initVMAFChg%")
		b.ReportMetric(m["PlayDelayMs"].CI.Point, "playDelayChg%")
	}
}

// BenchmarkSec55NaiveBaseline regenerates the §5.5 experiment: blanket 4x
// pacing including the initial phase (paper: -53% throughput but +6% play
// delay and -0.2% VMAF — worse than Sammy on every axis).
func BenchmarkSec55NaiveBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := abtest.Run(benchABConfig(17), []abtest.Arm{
			abtest.ControlArm(),
			abtest.StandardArms()[2],
		})
		rows := abtest.Compare(results[1], results[0], 99)
		if i == 0 {
			fmt.Print(abtest.FormatTable("\n§5.5 naive 4x baseline vs control (paper: -53 tput, +6 playDelay)", rows))
		}
		m := rowsByName(rows)
		b.ReportMetric(m["ChunkThroughputMbps"].CI.Point, "tputChg%")
		b.ReportMetric(m["PlayDelayMs"].CI.Point, "playDelayChg%")
	}
}

// BenchmarkFig1Smoothing regenerates Figure 1: the bursty on-off trace and
// the smoothed same-QoE trace for one session.
func BenchmarkFig1Smoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		control := lab.SingleFlow(lab.ControlController(), 60, 1)
		sammy := lab.SingleFlow(lab.SammyController(), 60, 1)
		if i == 0 {
			fmt.Println("\nFigure 1 (a) control trace:")
			fmt.Print(trace.ASCII(control.Throughput, 90, 6))
			fmt.Println("Figure 1 (b) Sammy trace, same QoE:")
			fmt.Print(trace.ASCII(sammy.Throughput, 90, 6))
		}
		b.ReportMetric(control.Throughput.Max(), "controlPeakMbps")
		b.ReportMetric(sammy.Throughput.Max(), "sammyPeakMbps")
		b.ReportMetric(sammy.QoE.VMAF-control.QoE.VMAF, "vmafDelta")
	}
}

// BenchmarkFig2HYBThreshold regenerates Figure 2: HYB's decision threshold
// as a function of buffer (paper: empty buffer needs 1/β x bitrate).
func BenchmarkFig2HYBThreshold(b *testing.B) {
	h := abr.HYB{Beta: 0.5}
	d := 20 * time.Second
	r := 8 * units.Mbps
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("\nFigure 2b: min throughput to pick 8 Mbps (β=0.5, D=20s):")
			for _, bufS := range []int{0, 10, 20, 40} {
				x := h.MinThroughputFor(r, time.Duration(bufS)*time.Second, d)
				fmt.Printf("  buffer %2ds -> %v (%.2fx)\n", bufS, x, float64(x)/float64(r))
			}
		}
		x0 := h.MinThroughputFor(r, 0, d)
		b.ReportMetric(float64(x0)/float64(r), "emptyBufMultiple")
	}
}

// BenchmarkFig3ByPreExperimentThroughput regenerates Figure 3: throughput
// reduction by pre-experiment throughput bucket (paper: ≈0 below 6 Mbps to
// -74% above 90 Mbps).
func BenchmarkFig3ByPreExperimentThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := abtest.Run(benchABConfig(13), []abtest.Arm{
			abtest.ControlArm(),
			abtest.SammyArm(core.DefaultC0, core.DefaultC1),
		})
		rows := abtest.CompareByPreExperiment(results[1], results[0], 5)
		if i == 0 {
			fmt.Println("\nFigure 3: throughput change by pre-experiment bucket:")
			for _, row := range rows {
				fmt.Printf("  %-10s %s (%d sessions)\n", row.Bucket, row.CI, row.Sessions)
			}
		}
		b.ReportMetric(rows[0].CI.Point, "slowBucketChg%")
		b.ReportMetric(rows[len(rows)-1].CI.Point, "fastBucketChg%")
	}
}

// BenchmarkFig4BurstSize regenerates Figure 4: retransmit change vs pacing
// burst size (paper: -40% at burst 40, up to -60% at burst 4; QoE flat).
func BenchmarkFig4BurstSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points := lab.BurstSizeExperiment([]int{4, 16, 32, 40}, 40, 6)
		if i == 0 {
			fmt.Println("\nFigure 4: retransmits vs pacing burst size:")
			for _, p := range points {
				fmt.Printf("  burst %2d: retx %.4f (%+.1f%%)\n", p.Burst, p.RetxFraction, p.RetxChangePct)
			}
		}
		b.ReportMetric(points[1].RetxChangePct, "burst4Chg%")
		b.ReportMetric(points[len(points)-1].RetxChangePct, "burst40Chg%")
	}
}

// BenchmarkFig5ParamTradeoff regenerates Figure 5: the VMAF-vs-throughput
// tradeoff across (c0, c1) cells (paper: VMAF flat until ≈-80%, then falls).
func BenchmarkFig5ParamTradeoff(b *testing.B) {
	pairs := [][2]float64{{4.5, 4.0}, {3.2, 2.8}, {1.9, 1.6}, {1.45, 1.3}}
	for i := 0; i < b.N; i++ {
		points := abtest.SweepParameters(benchABConfig(23), pairs, 7)
		if i == 0 {
			fmt.Println("\nFigure 5: (c0,c1) sweep — throughput vs VMAF change:")
			for _, pt := range points {
				fmt.Printf("  c0=%.2f c1=%.2f  tput %s  VMAF %s\n", pt.C0, pt.C1, pt.ThroughputChg, pt.VMAFChg)
			}
		}
		b.ReportMetric(points[1].ThroughputChg.Point, "prodTputChg%")
		b.ReportMetric(points[1].VMAFChg.Point, "prodVMAFChg%")
	}
}

// BenchmarkFig6HistoryColdStart regenerates Figure 6: the initial-quality
// gap of a cold-start history converging over days.
func BenchmarkFig6HistoryColdStart(b *testing.B) {
	cfg := benchABConfig(29)
	cfg.Population.Users = 80
	cfg.ChunksPerSession = 40
	for i := 0; i < b.N; i++ {
		points := abtest.ColdStartStudy(cfg, 5, 3)
		if i == 0 {
			fmt.Println("\nFigure 6: cold-start initial-VMAF gap by day:")
			for _, pt := range points {
				fmt.Printf("  day %d: %s\n", pt.Day, pt.InitialVMAFChg)
			}
		}
		b.ReportMetric(points[0].InitialVMAFChg.Point, "day0Chg%")
		b.ReportMetric(points[len(points)-1].InitialVMAFChg.Point, "lastDayChg%")
	}
}

// BenchmarkFig7SingleFlow regenerates Figure 7: throughput and RTT of a
// single session on the lab link (paper: Sammy ≈15→13 Mbps, RTT at the
// 5 ms floor; control at link rate with inflated RTT).
func BenchmarkFig7SingleFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		control := lab.SingleFlow(lab.ControlController(), 90, 1)
		sammy := lab.SingleFlow(lab.SammyController(), 90, 1)
		if i == 0 {
			fmt.Printf("\nFigure 7: mean RTT control %.1f ms vs sammy %.1f ms; retx %.4f vs %.4f\n",
				control.RTT.Mean(), sammy.RTT.Mean(), control.Retransmit, sammy.Retransmit)
		}
		b.ReportMetric(control.RTT.Mean(), "controlRTTms")
		b.ReportMetric(sammy.RTT.Mean(), "sammyRTTms")
	}
}

// BenchmarkFig8aUDPNeighbor regenerates Figure 8a (paper: -51% one-way
// delay for a neighboring UDP flow).
func BenchmarkFig8aUDPNeighbor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.UDPNeighbor(90, 2)
		if i == 0 {
			fmt.Printf("\nFigure 8a: UDP delay %.2f -> %.2f ms (%+.1f%%, paper -51%%)\n",
				res.Control, res.Sammy, res.ImprovementPct())
		}
		b.ReportMetric(res.ImprovementPct(), "delayChg%")
	}
}

// BenchmarkFig8bTCPNeighbor regenerates Figure 8b (paper: +28% throughput
// for a neighboring TCP flow, 20 → 25.7 Mbps).
func BenchmarkFig8bTCPNeighbor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.TCPNeighbor(90, 3)
		if i == 0 {
			fmt.Printf("\nFigure 8b: TCP throughput %.1f -> %.1f Mbps (%+.1f%%, paper +28%%)\n",
				res.Control, res.Sammy, res.ImprovementPct())
		}
		b.ReportMetric(res.ImprovementPct(), "tputChg%")
	}
}

// BenchmarkFig8cHTTPNeighbor regenerates Figure 8c (paper: -18% HTTP
// response times, 1095 → 898 ms).
func BenchmarkFig8cHTTPNeighbor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.HTTPNeighbor(90, 4)
		if i == 0 {
			fmt.Printf("\nFigure 8c: HTTP response %.0f -> %.0f ms (%+.1f%%, paper -18%%)\n",
				res.Control, res.Sammy, res.ImprovementPct())
		}
		b.ReportMetric(res.ImprovementPct(), "respChg%")
	}
}

// BenchmarkFig8dVideoNeighbor regenerates Figure 8d (paper: -4% play delay
// for a neighboring video session).
func BenchmarkFig8dVideoNeighbor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := lab.VideoNeighbor(15, 2, 5)
		if i == 0 {
			fmt.Printf("\nFigure 8d: neighbor play delay %.0f -> %.0f ms (%+.1f%%, paper -4%%)\n",
				res.Control, res.Sammy, res.ImprovementPct())
		}
		b.ReportMetric(res.ImprovementPct(), "playDelayChg%")
	}
}

// BenchmarkAblationLimiters compares the Table 1 rate-limiter mechanisms at
// the same average rate (paper §5.6: pacing bursts of 4 beat cwnd-style
// 40-packet bursts by a further ~20% of retransmits).
func BenchmarkAblationLimiters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := lab.AblationLimiters(20, 7)
		if i == 0 {
			fmt.Println("\nAblation: rate-limiter mechanisms at the same average rate:")
			for _, r := range results {
				fmt.Printf("  %-13s retx %.4f tput %v\n", r.Name, r.RetxFraction, r.Throughput)
			}
		}
		b.ReportMetric(results[1].RetxFraction*100, "cwndCapRetx%")
		b.ReportMetric(results[3].RetxFraction*100, "paceB4retx%")
	}
}
