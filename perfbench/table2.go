package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/stats"
)

// t2Size is the table2 workload's input: the in-memory A/B behind
// `sammy-eval table2` and `fig3`.
var t2Size = abSize{users: 1000, sessions: 3, chunks: 100}

// t2Run is one in-memory A/B with its tables.
type t2Run struct {
	wallS      float64
	bootstrapS float64 // Compare + CompareByPreExperiment
	results    []abtest.ArmResult
	tables     string
	rows       []abtest.TableRow
}

// t2Iteration runs Table 2 and Fig 3 from one abtest.Run.
func t2Iteration(cfg abtest.Config, probe *abrProbe) *t2Run {
	arms := abArms()
	if probe != nil {
		arms = probe.arms(arms)
	}
	seed := cfg.Population.Seed
	t0 := time.Now()
	results := abtest.Run(cfg, arms)
	b0 := time.Now()
	rows := abtest.Compare(results[1], results[0], seed)
	buckets := abtest.CompareByPreExperiment(results[1], results[0], seed)
	run := &t2Run{bootstrapS: time.Since(b0).Seconds(), results: results, rows: rows}
	var sb strings.Builder
	sb.WriteString(abtest.FormatTable("Table 2: Sammy vs production control (% change, 95% CI)", rows))
	sb.WriteString("Figure 3: throughput reduction by pre-experiment throughput group\n")
	for _, row := range buckets {
		fmt.Fprintf(&sb, "  %-10s sessions=%4d  change=%s\n", row.Bucket, row.Sessions, row.CI)
	}
	run.tables = sb.String()
	run.wallS = time.Since(t0).Seconds()
	return run
}

func runTable2(o options) (*report, error) {
	cfg := abConfig(t2Size, o.seed, o.workers)
	rep := newReport()
	var setup setupTimes
	for i := 0; i < setupReps; i++ {
		setup.add(genPopulation(cfg))
	}

	var first *t2Run
	var walls []float64
	check := func(run *t2Run) {
		rep.attempted += int64(cfg.Population.Users)
		errs := 0
		for _, r := range run.results {
			errs += r.Errors
		}
		rep.failed += int64(errs)
		if errs > 0 {
			rep.failf("table2: %d users failed", errs)
		}
		if first == nil {
			first = run
			cis := map[string]stats.CI{}
			for _, r := range run.rows {
				cis[r.Metric] = r.CI
			}
			checkVerdicts(rep, "table2", cis)
			fmt.Fprint(o.log, run.tables)
		} else if run.tables != first.tables {
			rep.failf("table2: tables changed between iterations of the same seed")
		}
	}

	if !o.trace {
		repeatFor(o.seconds, func(int) bool {
			run := t2Iteration(cfg, nil)
			check(run)
			walls = append(walls, run.wallS)
			setup.add(genPopulation(cfg))
			return rep.gateErr == nil
		})
		rep.metrics["setup_s"] = median(setup)
		if rep.gateErr == nil {
			rep.metrics["peak_heap_MB"] = peakLiveHeapMB(func() { check(t2Iteration(cfg, nil)) })
		}
		rep.metrics["wall_s"] = median(walls)
		fmt.Fprintf(o.log, "table2: %d users x %d sessions x %d chunks, %s, median %.0f users/s\n",
			t2Size.users, t2Size.sessions, t2Size.chunks, quartiles(walls), float64(t2Size.users)/median(walls))
		return rep, nil
	}

	var traced []*t2Run
	probe := &abrProbe{}
	repeatFor(o.seconds, func(i int) bool {
		for _, tr := range pairOrder(i) {
			if tr {
				run := t2Iteration(cfg, probe)
				check(run)
				traced = append(traced, run)
			} else {
				run := t2Iteration(cfg, nil)
				check(run)
				walls = append(walls, run.wallS)
			}
		}
		return rep.gateErr == nil
	})
	if rep.gateErr != nil {
		return rep, nil
	}
	checkLiveDecisions(rep, cfg, probe, len(traced))

	rp := newReplica(cfg, abArms(), o.workers)
	t0 := nowNs()
	users := abtest.GeneratePopulation(cfg.Population)
	genNs := nowNs() - t0
	perUser := rp.runUsers(users)
	replicaResults := make([]abtest.ArmResult, len(rp.arms))
	for a, arm := range rp.arms {
		replicaResults[a].Name = arm.Name
		for _, recs := range perUser {
			replicaResults[a].Sessions = append(replicaResults[a].Sessions, recs[a]...)
		}
	}
	if !reflect.DeepEqual(replicaResults, first.results) {
		rep.failf("replica: session records differ from the live run's, so the replay did not time the same work")
	}
	l := rp.checkReplay(rep)

	var tracedWalls, boots []float64
	for _, t := range traced {
		tracedWalls = append(tracedWalls, t.wallS)
		boots = append(boots, t.bootstrapS)
	}
	m := rep.metrics
	abrNs, decisions := rp.probe.ns.Load(), rp.probe.decisions.Load()
	abLayerMetrics(m, l, abrNs, decisions)
	m["abtest.gen_s"] = float64(genNs) / 1e9
	m["stats.bootstrap_s"] = median(boots)

	e2e := median(tracedWalls)
	lg := &ledger{workers: o.workers, e2eS: e2e}
	lg.add("abtest.gen", 1, float64(genNs)/1e9, false)
	abLedgerRows(lg, l, abrNs, decisions)
	lg.add("stats.bootstrap", 2, median(boots), false)
	rep.ledger = lg
	m["ledger.residual_frac"] = lg.residualFrac()
	m["trace.overhead_frac"] = e2e/median(walls) - 1
	return rep, nil
}
