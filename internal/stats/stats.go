// Package stats provides the descriptive statistics used by the Sammy
// evaluation harness: quantiles, medians, means, bootstrap confidence
// intervals and percent-change summaries of treatment-vs-control metric
// samples, in the style of the paper's A/B test tables.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN when fewer
// than two samples are available.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	lo, hi, frac := quantilePos(len(s), q)
	if lo == hi {
		return s[lo]
	}
	return lerp(s[lo], s[hi], frac)
}

// quantilePos locates the q-th quantile of n sorted values: it lies frac
// of the way from order statistic lo to order statistic hi.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// lerp interpolates linearly between order statistics a and b.
func lerp(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Point float64 // point estimate
	Lo    float64 // lower bound
	Hi    float64 // upper bound
}

// Significant reports whether the interval excludes zero, i.e. whether the
// estimated change is statistically distinguishable from no change.
func (c CI) Significant() bool { return c.Lo > 0 || c.Hi < 0 }

// String formats the interval like the paper's tables: "-61.0 [-61.8, -60.2]".
func (c CI) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f]", c.Point, c.Lo, c.Hi)
}

// MedianPercentChange estimates the percent change of the median between a
// treatment and a control sample, with a bootstrap percentile 95% confidence
// interval. This mirrors how the paper reports "% Chg." with a 95% CI for
// throughput, retransmits, RTT and VMAF.
//
// iters bootstrap resamples are drawn using rng; 1000 is plenty for table
// reproduction. The point estimate uses the full samples. Each iteration
// draws len(treatment) indices and then len(control) indices with
// rng.Intn; callers chain one rng through several metrics, so that draw
// order is part of the output.
//
// Each sample is sorted once. A resample is then a tally of how often each
// sorted rank was drawn, and its median is read by walking the cumulative
// tallies to the two middle order statistics: the values a full sort of
// the resample would put there. The only values that sort as equal but
// differ in bits are ±0, which only decide a median that is zero, and
// percentChange maps that to the same delta whatever its sign; so the CI
// is bit-identical to sorting every resample. (NaNs with distinct
// payloads would also sort as equal; math.NaN gives them all one.)
func MedianPercentChange(treatment, control []float64, iters int, rng *rand.Rand) CI {
	if len(treatment) == 0 || len(control) == 0 {
		return CI{Point: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	t, c := newRankedSample(treatment), newRankedSample(control)
	deltas := make([]float64, iters)
	for i := range deltas {
		tm := t.resampleMedian(rng)
		deltas[i] = percentChange(tm, c.resampleMedian(rng))
	}
	return percentileCI(percentChange(t.median(), c.median()), deltas)
}

// MeanPercentChange is MedianPercentChange with the mean statistic, used
// for sparse-event metrics like rebuffer rates where the median is zero.
// A resample's mean is summed in draw order, which is the order Mean
// would sum the resampled slice in.
func MeanPercentChange(treatment, control []float64, iters int, rng *rand.Rand) CI {
	if len(treatment) == 0 || len(control) == 0 {
		return CI{Point: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	deltas := make([]float64, iters)
	for i := range deltas {
		tm := resampleMean(treatment, rng)
		deltas[i] = percentChange(tm, resampleMean(control, rng))
	}
	return percentileCI(percentChange(Mean(treatment), Mean(control)), deltas)
}

// percentileCI pairs point with the 2.5th and 97.5th percentiles of the
// bootstrap deltas, sorting deltas in place.
func percentileCI(point float64, deltas []float64) CI {
	sort.Float64s(deltas)
	return CI{
		Point: point,
		Lo:    quantileSorted(deltas, 0.025),
		Hi:    quantileSorted(deltas, 0.975),
	}
}

// percentChange returns 100·(x−base)/base, or NaN when base is zero.
func percentChange(x, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (x - base) / base
}

// resampleMean returns the mean of len(src) draws (with replacement) from
// src.
func resampleMean(src []float64, rng *rand.Rand) float64 {
	n := len(src)
	var sum float64
	for range n {
		sum += src[rng.Intn(n)]
	}
	return sum / float64(n)
}

// rankedSample is a sample sorted once for repeated bootstrap medians.
type rankedSample struct {
	sorted []float64 // the sample in sort.Float64s order (NaN first)
	rank   []int32   // rank[j] is the index of the j-th input in sorted
	counts []int32   // counts[r] is how often rank r was drawn this resample
	lo, hi int       // the median's order statistics in a sample of this size
	frac   float64   // the median's interpolation weight between lo and hi
}

func newRankedSample(xs []float64) *rankedSample {
	n := len(xs)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// cmp.Compare orders like sort.Float64s: NaN first, -0 equal to +0.
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) })
	r := &rankedSample{sorted: make([]float64, n), rank: make([]int32, n), counts: make([]int32, n)}
	for pos, j := range order {
		r.sorted[pos] = xs[j]
		r.rank[j] = int32(pos)
	}
	r.lo, r.hi, r.frac = quantilePos(n, 0.5)
	return r
}

// median is Median of the full sample.
func (r *rankedSample) median() float64 { return quantileSorted(r.sorted, 0.5) }

// resampleMedian returns the median of len(sample) draws (with
// replacement), making the same rng.Intn calls as filling and sorting a
// resample would.
func (r *rankedSample) resampleMedian(rng *rand.Rand) float64 {
	n := len(r.rank)
	for range n {
		r.counts[r.rank[rng.Intn(n)]]++
	}
	// Walk the cumulative tallies: the k-th order statistic of the
	// resample is sorted[pos] for the first pos whose running total
	// exceeds k.
	pos, seen := 0, int(r.counts[0])
	for seen <= r.lo {
		pos++
		seen += int(r.counts[pos])
	}
	lo := r.sorted[pos]
	for seen <= r.hi {
		pos++
		seen += int(r.counts[pos])
	}
	hi := r.sorted[pos]
	clear(r.counts)
	if r.lo == r.hi {
		return lo
	}
	return lerp(lo, hi, r.frac)
}

// Histogram counts xs into nbins equal-width bins across [min, max]. Values
// outside the range are clamped into the first/last bin. It reports the bin
// edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, min, max float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 || max <= min {
		return nil, nil
	}
	edges = make([]float64, nbins+1)
	width := (max - min) / float64(nbins)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		b := int((x - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return edges, counts
}
