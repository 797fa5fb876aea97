package abr

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/video"
)

// upwardLastFeasible is the rung scan HYB and Production used before the
// early-exit scan: simulate every rung bottom-up and keep the last feasible
// one.
func upwardLastFeasible(ctx Context, look int, x units.BitsPerSecond) int {
	best := 0
	for rung := range ctx.Title.Ladder {
		if predictedBufferPositive(ctx, rung, look, x) {
			best = rung
		}
	}
	return best
}

// upwardHYB is HYB.SelectRung with the upward scan.
func upwardHYB(h HYB, ctx Context) int {
	beta := h.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.5
	}
	look := h.Lookahead
	if look <= 0 {
		look = 5
	}
	x := ctx.effectiveThroughput()
	if x <= 0 {
		return 0
	}
	return upwardLastFeasible(ctx, look, units.BitsPerSecond(float64(x)*beta))
}

// upwardProduction is Production.SelectRung with the upward scan.
func upwardProduction(p Production, ctx Context) int {
	beta, look, safety, upBuf := p.params()
	x := ctx.Throughput
	if x <= 0 {
		est := units.BitsPerSecond(float64(ctx.InitialEstimate) * safety)
		if est <= 0 {
			return 0
		}
		return maxRungAtOrBelow(ctx.Title.Ladder, units.BitsPerSecond(float64(est)*beta))
	}
	best := upwardLastFeasible(ctx, look, units.BitsPerSecond(float64(x)*beta))
	if ctx.PrevRung >= 0 && best > ctx.PrevRung && ctx.Buffer < upBuf {
		best = ctx.PrevRung + 1
	}
	return best
}

// randomLadder draws a 1–13 rung ladder. Half are ascending, as NewLadder
// builds them; the rest are in random order, where feasibility need not be
// monotone in the rung index at all.
func randomLadder(rng *rand.Rand) video.Ladder {
	n := 1 + rng.Intn(13)
	rates := make([]units.BitsPerSecond, n)
	r := 100 + rng.Float64()*300
	for i := range rates {
		rates[i] = units.BitsPerSecond(r * 1e3)
		r *= 1.1 + rng.Float64()
	}
	if rng.Intn(2) == 0 {
		return video.NewLadder(rates...)
	}
	l := make(video.Ladder, n)
	for i, j := range rng.Perm(n) {
		l[i] = video.Rung{Bitrate: rates[j]}
	}
	return l
}

// randomContext draws a decision context: random ladder and VBR title,
// buffer, throughput (sometimes absent, for the startup paths), chunk index
// often within a lookahead of the title's end, and MaxBuffer on or off.
func randomContext(rng *rand.Rand) Context {
	chunks := 1 + rng.Intn(40)
	title := video.NewTitle(randomLadder(rng), time.Duration(1+rng.Intn(6))*time.Second, chunks, rng)
	idx := rng.Intn(chunks)
	if rng.Intn(2) == 0 {
		idx = chunks - 1 - rng.Intn(min(chunks, 10))
	}
	ctx := Context{
		Title:           title,
		ChunkIndex:      idx,
		Buffer:          time.Duration(rng.Float64() * float64(40*time.Second)),
		Playing:         rng.Intn(4) != 0,
		Throughput:      units.BitsPerSecond(math.Exp(rng.Float64()*math.Log(1e3)) * 50e3),
		InitialEstimate: units.BitsPerSecond(math.Exp(rng.Float64()*math.Log(1e3)) * 50e3),
		PrevRung:        rng.Intn(len(title.Ladder)+1) - 1,
	}
	if rng.Intn(5) == 0 {
		ctx.Throughput = 0
	}
	if rng.Intn(2) == 0 {
		ctx.MaxBuffer = time.Duration(5+rng.Intn(56)) * time.Second
	}
	return ctx
}

// TestRungScanMatchesUpwardScan checks that HYB and Production pick the same
// rung as the upward keep-the-last-feasible scan on randomized contexts.
func TestRungScanMatchesUpwardScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		ctx := randomContext(rng)
		h := HYB{Beta: rng.Float64(), Lookahead: rng.Intn(12)}
		if got, want := h.SelectRung(ctx), upwardHYB(h, ctx); got != want {
			t.Fatalf("case %d: HYB%+v picked %d, upward scan %d (ctx %+v)", i, h, got, want, ctx)
		}
		p := Production{Beta: rng.Float64(), Lookahead: rng.Intn(12), UpSwitchBuffer: time.Duration(rng.Intn(20)) * time.Second}
		if got, want := p.SelectRung(ctx), upwardProduction(p, ctx); got != want {
			t.Fatalf("case %d: Production%+v picked %d, upward scan %d (ctx %+v)", i, p, got, want, ctx)
		}
	}
}
