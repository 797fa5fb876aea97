package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/abtest"
	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/pacing"
	"repro/internal/player"
	"repro/internal/units"
	"repro/internal/video"
)

// The edge workload's request mix: the (chunk size, pace rate) pairs of
// Sammy-arm sessions from a seeded population sample, unpaced initial-phase
// chunks included. Chunks are cut from 4 s to edgeChunkDur of content so a
// run collects enough samples; every request keeps its pace rate.
var (
	edgeMixUsers  = 32
	edgeMixChunks = 8
)

const (
	edgeChunkDur = 125 * time.Millisecond
	srcChunkDur  = 4 * time.Second
	// fourK is the top bitrate of the 4K ladder cap; Sammy paces its
	// sessions at 2.8-3.2x of it.
	fourK = 16 * units.Mbps
)

type edgeReq struct {
	size  units.Bytes
	rate  units.BitsPerSecond // 0 = unpaced
	is4K  bool                // the session's ladder tops out at 4K
	index int
}

// edgeMix builds the request mix for seed.
func edgeMix(seed int64) []edgeReq {
	users := abtest.GeneratePopulation(abtest.PopulationConfig{Users: edgeMixUsers, Seed: seed})
	arm := abtest.SammyArm(core.DefaultC0, core.DefaultC1)
	var mix []edgeReq
	for _, u := range users {
		rng := rand.New(rand.NewSource(u.Seed))
		ladder := video.DefaultLadder().CapAt(u.TopBitrate)
		title := video.NewTitle(ladder, srcChunkDur, edgeMixChunks, rng)
		is4K := ladder.Top().Bitrate >= fourK
		player.Run(player.Config{Controller: arm.NewController(), Title: title}, u.Path, rng, func(ev player.ChunkEvent) {
			size := units.Bytes(float64(ev.Size) * float64(edgeChunkDur) / float64(srcChunkDur))
			mix = append(mix, edgeReq{size: size, rate: ev.PaceRate, is4K: is4K, index: len(mix)})
		})
	}
	return mix
}

// edgeEnv is a paced chunk server behind overload admission on a loopback
// listener, plus the client that fetches from it.
type edgeEnv struct {
	hs       *http.Server
	served   chan struct{} // closed when Serve returns
	tr       *http.Transport
	client   *cdn.Client
	eng      *pacing.Engine
	ctrl     *overload.Controller
	cdnM     *cdn.Metrics
	mu       sync.Mutex
	admitNs  []int64 // per request: middleware time minus inner serve time
	serveNs  []int64
	outerSum int64
}

// newEdgeEnv starts the server and dials workers keep-alive connections
// with a warm-up fetch on each. instrumented adds the timing decorators
// around the admission middleware and the chunk server, and obs metrics.
// wrap, when set, sits between the middleware and the chunk server.
func newEdgeEnv(workers int, seed int64, instrumented bool, wrap func(http.Handler) http.Handler) (*edgeEnv, error) {
	e := &edgeEnv{eng: pacing.NewEngine(pacing.EngineConfig{}), served: make(chan struct{})}
	srv := &cdn.Server{Engine: e.eng}
	var om *overload.Metrics
	if instrumented {
		reg := obs.NewRegistry()
		e.cdnM = cdn.NewMetrics(reg)
		srv.Metrics = e.cdnM
		om = overload.NewMetrics(reg)
	}
	e.ctrl = overload.New(overload.Config{}, om)
	var inner http.Handler = srv
	if wrap != nil {
		inner = wrap(inner)
	}
	var handler http.Handler
	if instrumented {
		handler = e.timed(inner)
	} else {
		handler = e.ctrl.Middleware(inner)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("edge: listen: %w", err)
	}
	e.hs = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	cdn.EnableConnPacing(e.hs)
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts the server
	}()
	e.tr = &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 15 * time.Second,
		MaxIdleConns:          workers,
		MaxIdleConnsPerHost:   workers,
		IdleConnTimeout:       90 * time.Second,
	}
	e.client = &cdn.Client{HTTP: &http.Client{Transport: e.tr}, BaseURL: "http://" + ln.Addr().String(), Seed: seed}

	// Dial: one concurrent warm-up fetch per worker opens that many
	// connections; a paced one warms the pacing engine too.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = e.client.FetchChunk(context.Background(), 64*units.KB, 20*units.Mbps)
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, fmt.Errorf("edge: warm-up: %w", err)
	}
	e.mu.Lock()
	e.admitNs, e.serveNs, e.outerSum = nil, nil, 0
	e.mu.Unlock()
	return e, nil
}

// timed wraps the admission middleware and the chunk server with timing
// decorators: admission cost is the middleware's time minus the time spent
// inside the chunk server.
func (e *edgeEnv) timed(inner http.Handler) http.Handler {
	type innerKey struct{}
	innerTimed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := nowNs()
		inner.ServeHTTP(w, r)
		*r.Context().Value(innerKey{}).(*int64) = nowNs() - t0
	})
	mw := e.ctrl.Middleware(innerTimed)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var innerNs int64
		r = r.WithContext(context.WithValue(r.Context(), innerKey{}, &innerNs))
		t0 := nowNs()
		mw.ServeHTTP(w, r)
		outer := nowNs() - t0
		e.mu.Lock()
		e.admitNs = append(e.admitNs, outer-innerNs)
		e.serveNs = append(e.serveNs, innerNs)
		e.outerSum += outer
		e.mu.Unlock()
	})
}

// close stops the server and waits for it, then releases the engine and
// the client's idle connections.
func (e *edgeEnv) close() {
	e.hs.Close()
	<-e.served
	e.eng.Close()
	e.tr.CloseIdleConnections()
}

// fetchOutcome is one request's result.
type fetchOutcome struct {
	req      edgeReq
	attained float64 // body-read throughput over the requested rate; 0 when unpaced
	ttfbS    float64
	durS     float64
	retries  int
	err      error
}

// pass runs the whole mix once as a closed loop on workers connections:
// each worker sends its next request only after the previous one finished.
func (e *edgeEnv) pass(mix []edgeReq, workers int) (wallS float64, out []fetchOutcome) {
	out = make([]fetchOutcome, len(mix))
	t0 := time.Now()
	parallelFor(len(mix), workers, func(_, i int) {
		req := mix[i]
		chk := &fillerCheck{bad: -1}
		res, err := e.client.FetchChunkTo(context.Background(), chk, req.size, req.rate)
		if err == nil {
			err = chk.verify(req.size)
		}
		o := fetchOutcome{req: req, ttfbS: res.FirstByte.Seconds(), durS: res.Duration.Seconds(),
			retries: res.Retries, err: err}
		if req.rate > 0 && err == nil {
			o.attained = float64(res.Throughput) / float64(req.rate)
		}
		out[i] = o
	})
	return time.Since(t0).Seconds(), out
}

// edgePattern holds the filler body from offset 0, long enough that any
// client read (32 KB) starting at any phase of the 26-byte period is a
// subslice.
var edgePattern = func() []byte {
	b := make([]byte, 64*1024+26)
	for i := range b {
		b[i] = cdn.FillerByte(int64(i))
	}
	return b
}()

// fillerCheck is the body sink: it compares every byte against
// cdn.FillerByte at its absolute offset.
type fillerCheck struct {
	off int64
	bad int64 // first mismatching offset, -1 for none
}

func (f *fillerCheck) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		phase := f.off % 26
		k := min(len(p), len(edgePattern)-int(phase))
		want := edgePattern[phase : int(phase)+k]
		if f.bad < 0 && string(p[:k]) != string(want) {
			for i := range p[:k] {
				if p[i] != want[i] {
					f.bad = f.off + int64(i)
					break
				}
			}
		}
		f.off += int64(k)
		p = p[k:]
	}
	return n, nil
}

// verify reports whether the body was exactly size filler bytes.
func (f *fillerCheck) verify(size units.Bytes) error {
	if f.bad >= 0 {
		return fmt.Errorf("edge: body byte %d differs from cdn.FillerByte", f.bad)
	}
	if f.off != int64(size) {
		return fmt.Errorf("edge: body has %d bytes, want %d", f.off, size)
	}
	return nil
}

// edgeTally pools outcomes across passes.
type edgeTally struct {
	walls           []float64
	attained, att4K []float64
	ttfbMs          []float64
	fetches, failed int64
	retries         int64
	paced           int64
	clientSumS      float64
}

// add pools one pass and gates its outcomes: every fetch must succeed with
// a byte-exact body.
func (t *edgeTally) add(rep *report, wallS float64, out []fetchOutcome) {
	t.walls = append(t.walls, wallS)
	for _, o := range out {
		t.fetches++
		t.retries += int64(o.retries)
		t.clientSumS += o.durS
		if o.err != nil {
			t.failed++
			rep.failf("edge: request %d (%v at %v): %v", o.req.index, o.req.size, o.req.rate, o.err)
			continue
		}
		t.ttfbMs = append(t.ttfbMs, o.ttfbS*1e3)
		if o.req.rate > 0 {
			t.paced++
			t.attained = append(t.attained, o.attained)
			if o.req.is4K {
				t.att4K = append(t.att4K, o.attained)
			}
		}
	}
}

func (t *edgeTally) report(o options) string {
	return fmt.Sprintf("edge: %d fetches over loopback TCP (no real link), %d connections, passes: %s; "+
		"pace attained p50 %.4f p10 %.4f over %d paced chunks, 4K-ladder p50 %.4f p10 %.4f over %d",
		t.fetches, o.workers, quartiles(t.walls), median(t.attained), quantile(t.attained, 0.1),
		len(t.attained), median(t.att4K), quantile(t.att4K, 0.1), len(t.att4K))
}

func runEdge(o options) (*report, error) {
	return edgeWorkload(o, nil)
}

// edgeWorkload runs the edge workload; wrap is passed to the chunk server
// chain (tests use it to corrupt bodies).
func edgeWorkload(o options, wrap func(http.Handler) http.Handler) (*report, error) {
	rep := newReport()
	mix := edgeMix(o.seed)

	// Set-up: server start, dial and warm-up. Only the last environment
	// set up before the timed phase serves it.
	var setup setupTimes
	startEnv := func() (*edgeEnv, error) {
		var env *edgeEnv
		err := setup.add(func() error {
			var err error
			env, err = newEdgeEnv(o.workers, o.seed, false, wrap)
			return err
		})
		return env, err
	}
	var env *edgeEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = startEnv(); err != nil {
			return nil, err
		}
	}
	defer env.close()

	var plain edgeTally
	if !o.trace {
		var setupErr error
		repeatFor(o.seconds, func(int) bool {
			wall, out := env.pass(mix, o.workers)
			plain.add(rep, wall, out)
			extra, err := startEnv()
			if err != nil {
				setupErr = err
				return false
			}
			extra.close()
			return rep.gateErr == nil
		})
		if setupErr != nil {
			return nil, setupErr
		}
		rep.metrics["setup_s"] = median(setup)
		rep.metrics["wall_s"] = median(plain.walls)
		if rep.gateErr == nil {
			rep.metrics["peak_heap_MB"] = peakLiveHeapMB(func() {
				_, out := env.pass(mix, o.workers)
				var mem edgeTally
				mem.add(rep, 0, out)
				plain.fetches, plain.failed = plain.fetches+mem.fetches, plain.failed+mem.failed
			})
		}
		rep.attempted, rep.failed = plain.fetches, plain.failed
		fmt.Fprintln(o.log, plain.report(o))
		return rep, nil
	}

	// Traced: alternate passes on the plain server and on an instrumented
	// twin with its own engine.
	tenv, err := newEdgeEnv(o.workers, o.seed, true, wrap)
	if err != nil {
		return nil, err
	}
	defer tenv.close()
	var traced edgeTally
	st0 := tenv.eng.Stats()
	repeatFor(o.seconds, func(i int) bool {
		for _, tr := range pairOrder(i) {
			if tr {
				wall, out := tenv.pass(mix, o.workers)
				traced.add(rep, wall, out)
			} else {
				wall, out := env.pass(mix, o.workers)
				plain.add(rep, wall, out)
			}
		}
		return rep.gateErr == nil
	})
	rep.attempted = plain.fetches + traced.fetches
	rep.failed = plain.failed + traced.failed
	fmt.Fprintln(o.log, plain.report(o))
	if rep.gateErr != nil {
		return rep, nil
	}
	st := tenv.eng.Stats()

	tenv.mu.Lock()
	admitUs := nsToUnit(tenv.admitNs, 1e3)
	serveMs := nsToUnit(tenv.serveNs, 1e6)
	var admitSum, serveSum float64
	for i := range tenv.admitNs {
		admitSum += float64(tenv.admitNs[i]) / 1e9
		serveSum += float64(tenv.serveNs[i]) / 1e9
	}
	outerSum := float64(tenv.outerSum) / 1e9
	tenv.mu.Unlock()

	m := rep.metrics
	m["overload.admit_us_p50"] = median(admitUs)
	m["overload.admit_us_p99"] = quantile(admitUs, 0.99)
	m["overload.shed"] = float64(tenv.ctrl.Metrics.Shed.Value())
	m["cdn.serve_ms_p50"] = median(serveMs)
	m["cdn.bytes"] = float64(tenv.cdnM.BytesServed.Value())
	m["pacing.wakeups"] = float64(st.Wakeups - st0.Wakeups)
	m["pacing.releases_per_chunk"] = float64(st.Released-st0.Released) / float64(traced.paced)
	m["client.ttfb_ms_p50"] = median(traced.ttfbMs)
	m["client.retries"] = float64(traced.retries)
	m["edge.pace_attained_p50"] = median(plain.attained)
	m["edge.pace_attained_p10"] = quantile(plain.attained, 0.1)
	m["edge.pace_attained_4k_p50"] = median(plain.att4K)

	// Ledger in connection-seconds: every fetch's time splits into
	// admission, serving (pacing waits included) and the client side
	// (transport, body reads and verification).
	var wallSum float64
	for _, w := range traced.walls {
		wallSum += w
	}
	lg := &ledger{workers: o.workers, e2eS: wallSum}
	n := float64(traced.fetches)
	lg.add("overload.admit", n, admitSum, true)
	lg.add("cdn.serve", n, serveSum, true)
	lg.add("client", n, traced.clientSumS-outerSum, true)
	rep.ledger = lg
	m["ledger.residual_frac"] = lg.residualFrac()
	m["trace.overhead_frac"] = median(traced.walls)/median(plain.walls) - 1
	return rep, nil
}

// nsToUnit converts nanosecond samples to another unit (div = ns per unit).
func nsToUnit(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
