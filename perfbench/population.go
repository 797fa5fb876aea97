package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/stats"
)

// popSize is the population workload's input: users × sessions × chunks,
// run in popShards checkpointed shards (sammy-eval population's default
// shard count).
var popSize = abSize{users: 2000, sessions: 2, chunks: 60}

const popShards = 8

// popRun is one live sharded run plus its resume pass.
type popRun struct {
	wallS   float64 // live run, tables included
	resumeS float64 // resume pass over the same directory
	welchS  float64 // CompareSketches + CompareBucketSketches
	tables  string
	arms    []*abtest.ArmSketch
	errors  int // users excluded
	done    bool
	writes  int // shard checkpoint files
	bytes   int64
	gapsNs  []int64 // per shard: last ABR decision to the "done" event
}

// popIteration runs the population A/B the way `sammy-eval population
// -checkpoint-dir` does, then resumes over the same directory and gates the
// result. probe, when set, times the ABR decisions and the per-shard tail
// after the last decision.
func popIteration(cfg abtest.Config, dir string, probe *abrProbe, rep *report) (*popRun, error) {
	run, err := popLive(cfg, dir, probe)
	if err != nil {
		return nil, err
	}
	return run, popResume(cfg, dir, run, rep)
}

// popShardConfig is the sharded-run configuration over dir.
func popShardConfig(cfg abtest.Config, dir string) abtest.ShardRunConfig {
	return abtest.ShardRunConfig{
		Experiment:    cfg,
		Arms:          abArms(),
		ShardSize:     (cfg.Population.Users + popShards - 1) / popShards,
		CheckpointDir: dir,
	}
}

// popLive is the timed live run into a fresh checkpoint directory.
func popLive(cfg abtest.Config, dir string, probe *abrProbe) (*popRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	run := &popRun{}
	scfg := popShardConfig(cfg, dir)
	if probe != nil {
		scfg.Arms = probe.arms(scfg.Arms)
		scfg.Progress = func(ev abtest.ShardEvent) {
			if ev.Status == "done" {
				run.gapsNs = append(run.gapsNs, nowNs()-probe.lastNs.Load())
			}
		}
	}
	t0 := time.Now()
	res, err := abtest.RunSharded(scfg)
	if err != nil {
		return nil, err
	}
	w0 := time.Now()
	run.tables = popTables(cfg, res)
	run.welchS = time.Since(w0).Seconds()
	run.wallS = time.Since(t0).Seconds()
	run.arms = res.Arms
	run.errors = res.UserErrors
	for _, q := range res.Quarantined {
		run.errors += q.Hi - q.Lo
	}
	run.done = res.Done()

	files, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		run.writes++
		run.bytes += fi.Size()
	}
	return run, nil
}

// popResume resumes over the live run's directory and gates: the resume
// must re-read every shard and print byte-identical tables, and no user
// may be excluded.
func popResume(cfg abtest.Config, dir string, run *popRun, rep *report) error {
	scfg := popShardConfig(cfg, dir)
	scfg.Resume = true
	t0 := time.Now()
	res, err := abtest.RunSharded(scfg)
	if err != nil {
		return err
	}
	resumed := popTables(cfg, res)
	run.resumeS = time.Since(t0).Seconds()

	if run.errors > 0 || !run.done {
		rep.failf("population: %d users excluded (all shards done: %v)", run.errors, run.done)
	}
	if res.Resumed != res.NumShards || res.Completed != 0 || len(res.Skipped) > 0 {
		rep.failf("population: resume re-read %d of %d shards and re-ran %d (rejected: %s)",
			res.Resumed, res.NumShards, res.Completed, strings.Join(res.Skipped, "; "))
	}
	if resumed != run.tables {
		rep.failf("population: resumed tables differ from the live tables")
	}
	return nil
}

// popTables renders the tables `sammy-eval population` prints.
func popTables(cfg abtest.Config, res *abtest.ShardedResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "population A/B: %d users, %d shards\n", cfg.Population.Users, res.NumShards)
	sb.WriteString(abtest.FormatSketchTable("Table 2 (streamed): Sammy vs control (Welch 95% CI on % change of the mean)",
		abtest.CompareSketches(res.Arms[1], res.Arms[0])))
	sb.WriteString("Figure 3 (streamed): throughput change by pre-experiment throughput group\n")
	for _, row := range abtest.CompareBucketSketches(res.Arms[1], res.Arms[0]) {
		fmt.Fprintf(&sb, "  %-10s sessions=%6d  %+.2f%% [%.2f, %.2f]  median %+.2f%%\n",
			row.Bucket, row.Sessions, row.MeanChg.Point, row.MeanChg.Lo, row.MeanChg.Hi, row.MedianChgPct)
	}
	return sb.String()
}

// popVerdicts applies the Table 2 gate to the streamed table.
func popVerdicts(rep *report, arms []*abtest.ArmSketch) {
	cis := map[string]stats.CI{}
	for _, r := range abtest.CompareSketches(arms[1], arms[0]) {
		cis[r.Metric] = r.MeanChg
	}
	checkVerdicts(rep, "population", cis)
}

func runPopulation(o options) (*report, error) {
	cfg := abConfig(popSize, o.seed, o.workers)
	rep := newReport()
	var setup setupTimes
	for i := 0; i < setupReps; i++ {
		setup.add(genPopulation(cfg))
	}

	dir := filepath.Join(o.workDir, "ckpt")
	var first *popRun
	var walls []float64
	var runErr error
	check := func(run *popRun) {
		rep.attempted += int64(cfg.Population.Users)
		rep.failed += int64(run.errors)
		if first == nil {
			first = run
			popVerdicts(rep, run.arms)
			fmt.Fprint(o.log, run.tables)
		} else if run.tables != first.tables {
			rep.failf("population: tables changed between iterations of the same seed")
		}
	}

	if !o.trace {
		repeatFor(o.seconds, func(int) bool {
			run, err := popIteration(cfg, dir, nil, rep)
			if err != nil {
				runErr = err
				return false
			}
			check(run)
			walls = append(walls, run.wallS)
			setup.add(genPopulation(cfg))
			return rep.gateErr == nil
		})
		rep.metrics["setup_s"] = median(setup)
		if runErr == nil && rep.gateErr == nil {
			rep.metrics["peak_heap_MB"] = peakLiveHeapMB(func() {
				run, err := popIteration(cfg, dir, nil, rep)
				if err != nil {
					runErr = err
					return
				}
				check(run)
			})
		}
		if runErr != nil {
			return nil, runErr
		}
		rep.metrics["wall_s"] = median(walls)
		fmt.Fprintf(o.log, "population: %d users x %d sessions x %d chunks, %s, median %.0f users/s\n",
			popSize.users, popSize.sessions, popSize.chunks, quartiles(walls), float64(popSize.users)/median(walls))
		return rep, nil
	}

	// Traced: alternate untraced and traced live runs, then replay.
	var traced []*popRun
	probe := &abrProbe{}
	repeatFor(o.seconds, func(i int) bool {
		for _, tr := range pairOrder(i) {
			var p *abrProbe
			if tr {
				p = probe
			}
			run, err := popIteration(cfg, dir, p, rep)
			if err != nil {
				runErr = err
				return false
			}
			check(run)
			if tr {
				traced = append(traced, run)
			} else {
				walls = append(walls, run.wallS)
			}
		}
		return rep.gateErr == nil
	})
	if runErr != nil {
		return nil, runErr
	}
	if rep.gateErr != nil {
		return rep, nil
	}
	popLayers(o, cfg, rep, first, probe, traced, median(walls))
	return rep, nil
}

// genPopulation is the A/B workloads' set-up: population generation.
func genPopulation(cfg abtest.Config) func() error {
	return func() error {
		runtime.KeepAlive(abtest.GeneratePopulation(cfg.Population))
		return nil
	}
}

// popLayers runs the replica shard by shard, checks it against the live
// result, and fills the per-layer metrics and the ledger.
func popLayers(o options, cfg abtest.Config, rep *report, live *popRun, probe *abrProbe, traced []*popRun, untracedWall float64) {
	rp := newReplica(cfg, abArms(), o.workers)
	shardSize := (cfg.Population.Users + popShards - 1) / popShards
	totals := make([]*abtest.ArmSketch, len(rp.arms))
	for a, arm := range rp.arms {
		totals[a] = abtest.NewArmSketch(arm.Name)
	}
	var genNs, addNs, mergeNs, adds, merges int64
	for lo := 0; lo < cfg.Population.Users; lo += shardSize {
		hi := min(lo+shardSize, cfg.Population.Users)
		t0 := nowNs()
		users := abtest.GenerateUserRange(cfg.Population, lo, hi)
		genNs += nowNs() - t0
		perUser := rp.runUsers(users)
		for a, arm := range rp.arms {
			sk := abtest.NewArmSketch(arm.Name)
			t0 := nowNs()
			for _, recs := range perUser {
				for _, rec := range recs[a] {
					sk.AddSession(rec)
					adds++
				}
			}
			addNs += nowNs() - t0
			t0 = nowNs()
			if err := totals[a].Merge(sk); err != nil {
				rep.failf("replica: merge: %v", err)
				return
			}
			mergeNs += nowNs() - t0
			merges++
		}
	}
	if sketchFingerprint(totals) != sketchFingerprint(live.arms) {
		rep.failf("replica: sketches differ from the live run's, so the replay did not time the same work")
	}
	l := rp.checkReplay(rep)
	checkLiveDecisions(rep, cfg, probe, len(traced))

	var tracedWalls, welch, gaps, reads []float64
	var writes, bytes int
	for _, t := range traced {
		tracedWalls = append(tracedWalls, t.wallS)
		welch = append(welch, t.welchS)
		reads = append(reads, t.resumeS/float64(popShards))
		for _, g := range t.gapsNs {
			gaps = append(gaps, float64(g)/1e9)
		}
		writes, bytes = t.writes, int(t.bytes)
	}
	shards := float64(popShards)
	sketchPerShardS := (float64(addNs) + float64(mergeNs)) / 1e9 / shards
	writeS := median(gaps) - sketchPerShardS

	m := rep.metrics
	abLayerMetrics(m, l, rp.probe.ns.Load(), rp.probe.decisions.Load())
	m["abtest.gen_s"] = float64(genNs) / 1e9
	m["abtest.sketch_adds"] = float64(adds)
	m["abtest.sketch_add_ns"] = float64(addNs) / float64(adds)
	m["abtest.sketch_merges"] = float64(merges)
	m["abtest.sketch_merge_us"] = float64(mergeNs) / 1e3 / float64(merges)
	m["abtest.checkpoint_writes"] = float64(writes)
	m["abtest.checkpoint_write_ms"] = writeS * 1e3
	m["abtest.checkpoint_bytes"] = float64(bytes)
	m["abtest.checkpoint_read_ms"] = median(reads) * 1e3
	m["stats.welch_ms"] = median(welch) * 1e3

	e2e := median(tracedWalls)
	lg := &ledger{workers: o.workers, e2eS: e2e}
	lg.add("abtest.gen", float64(popShards), float64(genNs)/1e9, false)
	abLedgerRows(lg, l, rp.probe.ns.Load(), rp.probe.decisions.Load())
	lg.add("abtest.sketch_add", float64(adds), float64(addNs)/1e9, false)
	lg.add("abtest.sketch_merge", float64(merges), float64(mergeNs)/1e9, false)
	lg.add("abtest.checkpoint_write", float64(writes), float64(writes)*writeS, false)
	lg.add("stats.welch", 1, median(welch), false)
	rep.ledger = lg
	m["ledger.residual_frac"] = lg.residualFrac()
	m["trace.overhead_frac"] = e2e/untracedWall - 1
}

// abLayerMetrics fills the netmodel, abr and player metrics from a replica
// tally.
func abLayerMetrics(m map[string]float64, l abLayers, abrNs, decisions int64) {
	m["netmodel.downloads"] = float64(l.downloads)
	m["netmodel.download_ns"] = float64(l.downloadNs) / float64(l.downloads)
	m["netmodel.busy_s"] = float64(l.downloadNs) / 1e9
	m["abr.decisions"] = float64(decisions)
	m["abr.decide_ns"] = float64(abrNs) / float64(decisions)
	m["abr.busy_s"] = float64(abrNs) / 1e9
	m["player.sessions"] = float64(l.sessions)
	m["player.session_us"] = float64(l.runNs) / 1e3 / float64(l.sessions)
	m["player.self_s"] = float64(l.runNs-abrNs-l.downloadNs) / 1e9
}

// abLedgerRows adds the parallel session-lane rows.
func abLedgerRows(lg *ledger, l abLayers, abrNs, decisions int64) {
	lg.add("netmodel.download", float64(l.downloads), float64(l.downloadNs)/1e9, true)
	lg.add("abr.decide", float64(decisions), float64(abrNs)/1e9, true)
	lg.add("player.self", float64(l.sessions), float64(l.runNs-abrNs-l.downloadNs)/1e9, true)
}
