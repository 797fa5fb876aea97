package tdigest

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleCompress is compress as it was with the reflection-based sort.Slice,
// kept to prove that the slices.SortFunc version is bit-identical.
func oracleCompress(t *TDigest) {
	if len(t.buffer) == 0 {
		return
	}
	merged := append(t.centroids, t.buffer...)
	t.buffer = t.buffer[:0]
	sort.Slice(merged, func(i, j int) bool { return merged[i].mean < merged[j].mean })

	out := merged[:0]
	var cum float64
	cur := merged[0]
	kLo := t.kScale(0)
	for _, c := range merged[1:] {
		proposed := cur.weight + c.weight
		q1 := (cum + proposed) / t.count
		if t.kScale(q1)-kLo <= 1 {
			cur.mean = (cur.mean*cur.weight + c.mean*c.weight) / proposed
			cur.weight = proposed
		} else {
			out = append(out, cur)
			cum += cur.weight
			kLo = t.kScale(cum / t.count)
			cur = c
		}
	}
	out = append(out, cur)
	t.centroids = append([]centroid(nil), out...)
}

// oracleAddWeighted is AddWeighted flushing through oracleCompress.
func oracleAddWeighted(t *TDigest, x, w float64) {
	if math.IsNaN(x) || w <= 0 {
		return
	}
	t.buffer = append(t.buffer, centroid{mean: x, weight: w})
	t.count += w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.buffer) == cap(t.buffer) {
		oracleCompress(t)
	}
}

// oracleMerge is Merge flushing through oracleCompress.
func oracleMerge(t, other *TDigest) {
	oracleCompress(other)
	for _, c := range other.centroids {
		oracleAddWeighted(t, c.mean, c.weight)
	}
}

// digestPair is one digest driven through the production code and its twin
// driven through the oracle.
type digestPair struct{ got, want *TDigest }

func newDigestPair(compression float64) digestPair {
	return digestPair{New(compression), New(compression)}
}

func (p digestPair) add(x, w float64) {
	p.got.AddWeighted(x, w)
	oracleAddWeighted(p.want, x, w)
}

func (p digestPair) merge(o digestPair) {
	p.got.Merge(o.got)
	oracleMerge(p.want, o.want)
}

// tieHeavySample draws from few distinct levels on a 0.1 grid, so most
// sorts see long runs of equal means.
func tieHeavySample(rng *rand.Rand, levels int) float64 {
	return float64(rng.Intn(levels)) / 10
}

// mixedWeight is 1 most of the time (Add), otherwise a weight spanning
// three orders of magnitude (AddWeighted and merged centroids).
func mixedWeight(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return math.Exp(rng.Float64()*7 - 2)
	}
	return 1
}

func assertSameDigest(t *testing.T, where string, p digestPair) {
	t.Helper()
	p.got.compress()
	oracleCompress(p.want)
	g, w := p.got, p.want
	if len(g.centroids) != len(w.centroids) {
		t.Fatalf("%s: %d centroids, oracle %d", where, len(g.centroids), len(w.centroids))
	}
	for i := range g.centroids {
		gc, wc := g.centroids[i], w.centroids[i]
		if math.Float64bits(gc.mean) != math.Float64bits(wc.mean) ||
			math.Float64bits(gc.weight) != math.Float64bits(wc.weight) {
			t.Fatalf("%s: centroid %d = %+v, oracle %+v", where, i, gc, wc)
		}
	}
	for _, pair := range [][2]float64{{g.Count(), w.Count()}, {g.Min(), w.Min()}, {g.Max(), w.Max()}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("%s: count/min/max %v, oracle %v", where, pair[0], pair[1])
		}
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if a, b := g.Quantile(q), w.Quantile(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: Quantile(%v) = %v, oracle %v", where, q, a, b)
		}
	}
}

// TestCompressMatchesSortSlice drives production digests and sort.Slice
// oracles through the same random Add/AddWeighted/Merge sequences — heavy
// ties, mixed weights, many buffer flushes — and requires bit-identical
// centroids, count, min, max and quantiles at every checkpoint.
func TestCompressMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flushes := 0
	for trial := 0; trial < 60; trial++ {
		compression := []float64{10, 25, 100}[trial%3]
		levels := 2 + rng.Intn(12)
		p := newDigestPair(compression)
		bufCap := cap(p.got.buffer)
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0: // a burst spanning at least one buffer flush
				for i := 0; i < bufCap+rng.Intn(bufCap); i++ {
					p.add(tieHeavySample(rng, levels), mixedWeight(rng))
				}
				flushes++
			case 1: // a short run that stays in the buffer
				for i := 0; i < rng.Intn(bufCap/4); i++ {
					p.add(tieHeavySample(rng, levels), mixedWeight(rng))
				}
			case 2: // merge a digest built the same way
				o := newDigestPair(compression)
				for i := 0; i < rng.Intn(3*bufCap); i++ {
					o.add(tieHeavySample(rng, levels), mixedWeight(rng))
				}
				p.merge(o)
				assertSameDigest(t, "merged-in digest", o)
			case 3:
				assertSameDigest(t, "checkpoint", p)
			}
		}
		assertSameDigest(t, "end of trial", p)
	}
	if flushes < 100 {
		t.Fatalf("only %d multi-flush bursts; the test no longer exercises repeated compression", flushes)
	}
}

// TestByMeanPermutationMatchesSortSlice checks the sort itself: on
// tie-heavy centroid slices whose weights tell equal means apart,
// slices.SortFunc(byMean) must leave every element where sort.Slice does.
func TestByMeanPermutationMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(900)
		levels := 1 + rng.Intn(20)
		a := make([]centroid, n)
		for i := range a {
			a[i] = centroid{mean: tieHeavySample(rng, levels), weight: float64(i)}
		}
		b := slices.Clone(a)
		sort.Slice(a, func(i, j int) bool { return a[i].mean < a[j].mean })
		slices.SortFunc(b, byMean)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (n=%d, %d levels): slices.SortFunc(byMean) permutes ties differently from sort.Slice", trial, n, levels)
		}
	}
}
