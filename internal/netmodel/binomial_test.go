package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bernoulliLosses is the per-segment oracle binomialLosses replaces: one
// uniform draw per segment, a loss whenever it falls below p. It is
// Binomial(n, p) by definition.
func bernoulliLosses(rng *rand.Rand, n int64, p float64) int64 {
	var k int64
	for i := int64(0); i < n; i++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// binomialLogPMF is log P(K = k) for K ~ Binomial(n, p), 0 < p < 1.
func binomialLogPMF(n, k int64, p float64) float64 {
	lgn, _ := math.Lgamma(float64(n + 1))
	lgk, _ := math.Lgamma(float64(k + 1))
	lgnk, _ := math.Lgamma(float64(n - k + 1))
	return lgn - lgk - lgnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// chiSquareBins partitions 0..n into contiguous bins whose expected counts
// over draws samples are all at least 5, pooling both tails into their
// neighbouring bins. It returns each k's bin index and each bin's expected
// count.
func chiSquareBins(n int64, p float64, draws int) (binOf []int, expected []float64) {
	binOf = make([]int, n+1)
	var cur, cdf float64
	for k := int64(0); k <= n; k++ {
		pk := math.Exp(binomialLogPMF(n, k, p))
		cur += pk * float64(draws)
		cdf += pk
		binOf[k] = len(expected)
		if cur >= 5 && (1-cdf)*float64(draws) >= 5 {
			expected = append(expected, cur)
			cur = 0
		}
	}
	// The upper tail (including any rounding residue) closes the last bin.
	return binOf, append(expected, cur+math.Max(0, 1-cdf)*float64(draws))
}

// chiSquareCritical is the upper-α quantile of the chi-square distribution
// with df degrees of freedom at α = 0.001 (z = 3.090), by the
// Wilson-Hilferty approximation.
func chiSquareCritical(df int) float64 {
	const z = 3.090
	d := float64(df)
	v := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * v * v * v
}

// chiSquareStat draws samples from sample and returns Pearson's statistic
// against the exact Binomial(n, p) pmf and its degrees of freedom.
func chiSquareStat(t *testing.T, n int64, p float64, draws int, sample func() int64) (stat float64, df int) {
	t.Helper()
	binOf, expected := chiSquareBins(n, p, draws)
	observed := make([]float64, len(expected))
	for i := 0; i < draws; i++ {
		k := sample()
		if k < 0 || k > n {
			t.Fatalf("sample %d outside [0, %d]", k, n)
		}
		observed[binOf[k]]++
	}
	for b, e := range expected {
		d := observed[b] - e
		stat += d * d / e
	}
	return stat, len(expected) - 1
}

// lossGrid is the (n, p) grid the sampler is checked over: the old
// per-segment region (mean below 5), the old normal-approximation region,
// a symmetric heavy-loss point, and the p=1 and n=1 edges.
var lossGrid = []struct {
	n int64
	p float64
}{
	{2000, 2e-4},   // old small-mean branch (mean 0.4)
	{5600, 2.5e-3}, // population ambient loss on a 4 s high-rung chunk
	{5600, 5e-3},   // old normal-approximation branch (mean 28)
	{40, 0.5},
	{100, 1},
	{1, 0.3},
}

// TestBinomialLossesChiSquare checks binomialLosses, and the per-segment
// Bernoulli oracle as a control, against the exact Binomial pmf with a
// fixed-seed Pearson goodness-of-fit test at α = 0.001.
func TestBinomialLossesChiSquare(t *testing.T) {
	const draws = 20000
	for i, g := range lossGrid {
		t.Run(fmt.Sprintf("n=%d,p=%g", g.n, g.p), func(t *testing.T) {
			c := &Conn{rng: rand.New(rand.NewSource(int64(100 + i)))}
			if g.p >= 1 {
				// A point mass at n: a single bin, so check it exactly.
				for j := 0; j < draws; j++ {
					if k := c.binomialLosses(g.n, g.p); k != g.n {
						t.Fatalf("binomialLosses(%d, 1) = %d", g.n, k)
					}
				}
				return
			}
			stat, df := chiSquareStat(t, g.n, g.p, draws, func() int64 { return c.binomialLosses(g.n, g.p) })
			if crit := chiSquareCritical(df); stat > crit {
				t.Errorf("binomialLosses: chi-square %.1f > %.1f (df %d)", stat, crit, df)
			}
			oracle := rand.New(rand.NewSource(int64(200 + i)))
			stat, df = chiSquareStat(t, g.n, g.p, draws, func() int64 { return bernoulliLosses(oracle, g.n, g.p) })
			if crit := chiSquareCritical(df); stat > crit {
				t.Errorf("Bernoulli oracle: chi-square %.1f > %.1f (df %d)", stat, crit, df)
			}
		})
	}
}

// TestBinomialLossesChiSquareHasPower guards the test above against being
// vacuous: a sampler whose loss rate is off by 10% must fail it.
func TestBinomialLossesChiSquareHasPower(t *testing.T) {
	const n, p, draws = 5600, 5e-3, 20000
	c := &Conn{rng: rand.New(rand.NewSource(1))}
	stat, df := chiSquareStat(t, n, p, draws, func() int64 { return c.binomialLosses(n, 1.1*p) })
	if crit := chiSquareCritical(df); stat <= crit {
		t.Errorf("a 10%% loss-rate error passed: chi-square %.1f <= %.1f (df %d)", stat, crit, df)
	}
}

// TestBinomialLossesEdges pins the degenerate cases, which must draw
// nothing from the RNG.
func TestBinomialLossesEdges(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		p    float64
		want int64
	}{
		{5600, 1, 5600},
		{1, 1, 1},
		{5600, 1.5, 5600},
		{0, 0.5, 0},
		{-3, 0.5, 0},
		{5600, 0, 0},
		{5600, -0.1, 0},
	} {
		src := &countingSource{src: rand.NewSource(1).(rand.Source64)}
		c := &Conn{rng: rand.New(src)}
		if got := c.binomialLosses(tc.n, tc.p); got != tc.want {
			t.Errorf("binomialLosses(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
		if src.draws != 0 {
			t.Errorf("binomialLosses(%d, %g) drew %d values, want 0", tc.n, tc.p, src.draws)
		}
	}
}

// countingSource counts the values drawn through it.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (s *countingSource) Int63() int64    { s.draws++; return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.draws++; return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// TestBinomialLossesDrawCount is the guard against a per-segment loop
// coming back: the mean number of source draws per call must stay within
// n·p + 2 (one draw per loss, one to step past n, plus slack for
// rand.Float64's rare redraw).
func TestBinomialLossesDrawCount(t *testing.T) {
	const calls = 2000
	for _, g := range lossGrid {
		src := &countingSource{src: rand.NewSource(7).(rand.Source64)}
		c := &Conn{rng: rand.New(src)}
		for i := 0; i < calls; i++ {
			c.binomialLosses(g.n, g.p)
		}
		mean := float64(src.draws) / calls
		if limit := float64(g.n)*g.p + 2; mean > limit {
			t.Errorf("n=%d p=%g: %.2f draws per call, want <= %.2f", g.n, g.p, mean, limit)
		}
	}
}
