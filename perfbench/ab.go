package main

// Shared machinery of the two A/B workloads: the experiment configuration,
// the ABR timing decorator, and the replica pass that re-runs every user's
// sessions through the same public calls the pipeline makes, recording each
// session's chunk events and replaying its downloads through netmodel.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abr"
	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/player"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/video"
)

// abSize is an A/B workload's fixed input size.
type abSize struct{ users, sessions, chunks int }

// preExpChunks is the length of the pre-experiment control session the
// pipeline runs per user to place it in a Fig 3 throughput group.
const preExpChunks = 40

// abConfig is the experiment configuration sammy-eval builds from
// -users/-sessions/-chunks/-seed, with every default spelled out.
func abConfig(sz abSize, seed int64, workers int) abtest.Config {
	return abtest.Config{
		Population:       abtest.PopulationConfig{Users: sz.users, Seed: seed},
		SessionsPerUser:  sz.sessions,
		WarmupSessions:   1,
		ChunksPerSession: sz.chunks,
		Ladder:           video.DefaultLadder(),
		ChunkDuration:    4 * time.Second,
		Parallelism:      workers,
	}
}

// abArms are sammy-eval's control and Sammy cells.
func abArms() []abtest.Arm {
	return []abtest.Arm{abtest.ControlArm(), abtest.SammyArm(core.DefaultC0, core.DefaultC1)}
}

// epoch anchors the monotonic nanosecond clock the probes share.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// abrProbe counts and times ABR decisions made through timedABR.
type abrProbe struct {
	decisions atomic.Int64
	ns        atomic.Int64
	lastNs    atomic.Int64 // clock reading at the end of the latest decision
}

// timedABR is a timing decorator at the abr.Algorithm interface.
type timedABR struct {
	inner abr.Algorithm
	p     *abrProbe
}

func (t timedABR) Name() string { return t.inner.Name() }

func (t timedABR) SelectRung(ctx abr.Context) int {
	t0 := nowNs()
	r := t.inner.SelectRung(ctx)
	t1 := nowNs()
	t.p.decisions.Add(1)
	t.p.ns.Add(t1 - t0)
	t.p.lastNs.Store(t1)
	return r
}

// controller rebuilds ctrl from its own configuration with the timing
// decorator around its ABR algorithm.
func (p *abrProbe) controller(ctrl *core.Controller) *core.Controller {
	cfg := ctrl.Config()
	cfg.ABR = timedABR{inner: cfg.ABR, p: p}
	c, err := core.NewController(ctrl.Name(), cfg)
	if err != nil {
		// The configuration came from a controller that already validated it.
		panic(fmt.Sprintf("perfbench: rebuild controller %s: %v", ctrl.Name(), err))
	}
	return c
}

// arms wraps every arm's controllers with the decorator.
func (p *abrProbe) arms(arms []abtest.Arm) []abtest.Arm {
	out := make([]abtest.Arm, len(arms))
	for i, a := range arms {
		out[i] = abtest.Arm{Name: a.Name, WarmSessions: a.WarmSessions,
			NewController: func() *core.Controller { return p.controller(a.NewController()) }}
	}
	return out
}

// abLayers is one replica worker's tally.
type abLayers struct {
	sessions, runNs       int64
	chunks                int64 // chunk events recorded
	downloads, downloadNs int64
	mismatches            int64 // replayed downloads whose result differs from the record
}

func (l *abLayers) addAll(o abLayers) {
	l.sessions += o.sessions
	l.runNs += o.runNs
	l.chunks += o.chunks
	l.downloads += o.downloads
	l.downloadNs += o.downloadNs
	l.mismatches += o.mismatches
}

// replica re-runs users' sessions with recording and replay.
type replica struct {
	cfg     abtest.Config
	arms    []abtest.Arm
	probe   abrProbe
	workers int
	tally   []abLayers // per worker
}

func newReplica(cfg abtest.Config, arms []abtest.Arm, workers int) *replica {
	return &replica{cfg: cfg, arms: arms, workers: workers, tally: make([]abLayers, workers)}
}

// layers sums the worker tallies.
func (r *replica) layers() abLayers {
	var t abLayers
	for _, w := range r.tally {
		t.addAll(w)
	}
	return t
}

// runUsers runs users on the replica's workers, filling each user's
// pre-experiment throughput and returning its measured sessions per arm.
func (r *replica) runUsers(users []*abtest.User) [][][]abtest.SessionRecord {
	out := make([][][]abtest.SessionRecord, len(users))
	parallelFor(len(users), r.workers, func(w, i int) {
		out[i] = r.user(w, users[i])
	})
	return out
}

// user mirrors the pipeline for one user: a pre-experiment control session
// seeded with Seed^0x5eed, then per arm a fresh history and controller over
// the user's own RNG stream, with one new title per session.
func (r *replica) user(w int, u *abtest.User) [][]abtest.SessionRecord {
	cfg := r.cfg
	ladder := cfg.Ladder.CapAt(u.TopBitrate)
	preSeed := u.Seed ^ 0x5eed

	rng := rand.New(rand.NewSource(preSeed))
	title := video.NewTitle(ladder, cfg.ChunkDuration, preExpChunks, rng)
	ctrl := r.probe.controller(abtest.ControlArm().NewController())
	_, ev := r.sessionQoE(w, player.Config{Controller: ctrl, Title: title, History: &core.History{}}, u.Path, rng)
	tputs := make([]float64, len(ev))
	for i, e := range ev {
		tputs[i] = e.Throughput.Mbps()
	}
	u.PreExpThroughput = units.BitsPerSecond(p95(tputs)) * units.Mbps
	rng = rand.New(rand.NewSource(preSeed))
	video.NewTitle(ladder, cfg.ChunkDuration, preExpChunks, rng)
	r.replay(w, u.Path, rng, ev)

	recs := make([][]abtest.SessionRecord, len(r.arms))
	for a, arm := range r.arms {
		rng := rand.New(rand.NewSource(u.Seed))
		hist := &core.History{}
		ctrl := r.probe.controller(arm.NewController())
		var sessions [][]player.ChunkEvent
		for s := 0; s < arm.WarmSessions+cfg.SessionsPerUser; s++ {
			title := video.NewTitle(ladder, cfg.ChunkDuration, cfg.ChunksPerSession, rng)
			q, ev := r.sessionQoE(w, player.Config{Controller: ctrl, Title: title, History: hist}, u.Path, rng)
			sessions = append(sessions, ev)
			if m := s - arm.WarmSessions; m >= cfg.WarmupSessions {
				recs[a] = append(recs[a], abtest.SessionRecord{UserID: u.ID, PreExp: u.PreExpThroughput, QoE: q})
			}
		}
		rng = rand.New(rand.NewSource(u.Seed))
		for _, ev := range sessions {
			video.NewTitle(ladder, cfg.ChunkDuration, cfg.ChunksPerSession, rng)
			r.replay(w, u.Path, rng, ev)
		}
	}
	return recs
}

// sessionQoE times one player.Run and returns its report and chunk events.
func (r *replica) sessionQoE(w int, pc player.Config, path netmodel.Path, rng *rand.Rand) (player.QoE, []player.ChunkEvent) {
	events := make([]player.ChunkEvent, 0, pc.Title.NumChunks)
	t0 := nowNs()
	q := player.Run(pc, path, rng, func(ev player.ChunkEvent) { events = append(events, ev) })
	t := &r.tally[w]
	t.runNs += nowNs() - t0
	t.sessions++
	t.chunks += int64(len(events))
	return q, events
}

// replay feeds a session's recorded (start, size, pace) sequence through a
// fresh netmodel connection on the same RNG stream, timing the downloads
// and counting any result whose throughput differs from the record.
func (r *replica) replay(w int, path netmodel.Path, rng *rand.Rand, events []player.ChunkEvent) {
	t := &r.tally[w]
	conn := netmodel.NewConn(path, rng)
	conn.Connect()
	got := make([]units.BitsPerSecond, len(events))
	t0 := nowNs()
	for i, ev := range events {
		got[i] = conn.DownloadAt(ev.Start, ev.Size, ev.PaceRate).Throughput
	}
	t.downloadNs += nowNs() - t0
	t.downloads += int64(len(events))
	for i, ev := range events {
		if got[i] != ev.Throughput {
			t.mismatches++
		}
	}
}

// checkReplay is the self-check that the ledger timed the same work the
// run did: every replayed download reproduces its recorded result, and the
// ABR made exactly one decision per chunk.
func (r *replica) checkReplay(rep *report) abLayers {
	l := r.layers()
	if l.mismatches > 0 {
		rep.failf("replay: %d of %d netmodel downloads differ from the recorded chunk events", l.mismatches, l.downloads)
	}
	if d := r.probe.decisions.Load(); d != l.chunks {
		rep.failf("replay: abr.decisions %d != chunks %d", d, l.chunks)
	}
	return l
}

// checkLiveDecisions checks that the decorated live runs made one ABR
// decision per arm chunk: users × arms × sessions × chunks per run.
func checkLiveDecisions(rep *report, cfg abtest.Config, probe *abrProbe, runs int) {
	want := int64(runs) * int64(cfg.Population.Users*len(abArms())*cfg.SessionsPerUser*cfg.ChunksPerSession)
	if got := probe.decisions.Load(); got != want {
		rep.failf("traced run: abr.decisions %d != arm chunks %d", got, want)
	}
}

// p95 is the pipeline's pre-experiment statistic.
func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, 0.95)
}

// parallelFor runs fn(worker, i) for i in [0, n) on workers goroutines and
// returns when all are done.
func parallelFor(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// checkVerdicts is the Table 2 gate from EXPERIMENTS.md: chunk throughput,
// retransmits and RTT fall significantly, and the VMAF interval covers 0.
func checkVerdicts(rep *report, table string, cis map[string]stats.CI) {
	for _, m := range []string{"ChunkThroughputMbps", "RetransmitPct", "RTTms"} {
		ci, ok := cis[m]
		if !ok || !(ci.Hi < 0) {
			rep.failf("%s: %s change %v is not a significant reduction", table, m, ci)
		}
	}
	if ci, ok := cis["VMAF"]; !ok || ci.Lo > 0 || ci.Hi < 0 {
		rep.failf("%s: VMAF change %v does not cover 0", table, ci)
	}
}

// sketchFingerprint renders a sketch's full state with exact float
// formatting, so two sketches compare equal only if every moment and
// centroid matches.
func sketchFingerprint(arms []*abtest.ArmSketch) string {
	var sb strings.Builder
	for _, a := range arms {
		fmt.Fprintf(&sb, "%s sessions=%d errors=%d\n", a.Name, a.Sessions, a.Errors)
		for _, group := range [][]abtest.MetricSketch{a.Metrics, a.Buckets} {
			for _, m := range group {
				fmt.Fprintf(&sb, "  %+v %+v\n", m.Moments, m.Digest.Snapshot())
			}
		}
	}
	return sb.String()
}
