package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refBootstrapPercentChange is the bootstrap as it was first written:
// fill a resample slice per arm and apply stat to it, which for the median
// copies and fully sorts every resample. MedianPercentChange and
// MeanPercentChange must agree with it bit for bit and leave rng in the
// same state.
func refBootstrapPercentChange(treatment, control []float64, stat func([]float64) float64, iters int, rng *rand.Rand) CI {
	if len(treatment) == 0 || len(control) == 0 {
		return CI{Point: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	point := percentChange(stat(treatment), stat(control))
	deltas := make([]float64, 0, iters)
	tRes := make([]float64, len(treatment))
	cRes := make([]float64, len(control))
	for i := 0; i < iters; i++ {
		refResample(treatment, tRes, rng)
		refResample(control, cRes, rng)
		b := stat(cRes)
		deltas = append(deltas, percentChange(stat(tRes), b))
	}
	sort.Float64s(deltas)
	return CI{Point: point, Lo: quantileSorted(deltas, 0.025), Hi: quantileSorted(deltas, 0.975)}
}

func refResample(src, dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = src[rng.Intn(len(src))]
	}
}

// oracleSample draws n values of the named shape.
func oracleSample(kind string, n int, rng *rand.Rand) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		x := 50 + rng.NormFloat64()*20
		switch kind {
		case "continuous":
		case "rounded": // a handful of distinct values, so most draws tie
			x = math.Round(x / 10)
		case "all-equal":
			x = 3.5
		case "signed-zeros": // mostly ±0, so medians land on zeros of either sign
			switch rng.Intn(4) {
			case 0:
				x = math.Copysign(0, -1)
			case 1, 2:
				x = 0
			}
		case "nan": // a NaN share that some resample medians reach
			if rng.Intn(3) == 0 {
				x = math.NaN()
			}
		case "zero-median": // sparse events: the control median is zero
			if rng.Intn(5) != 0 {
				x = 0
			}
		case "inf":
			switch rng.Intn(6) {
			case 0:
				x = math.Inf(1)
			case 1:
				x = math.Inf(-1)
			}
		}
		xs[i] = x
	}
	return xs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBootstrapMatchesSortOracle(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 4}, {7, 10}, {10, 7}, {100, 101}, {999, 1000}, {3000, 2500}}
	kinds := []string{"continuous", "rounded", "all-equal", "signed-zeros", "nan", "zero-median", "inf"}
	paths := []struct {
		name string
		fast func(t, c []float64, iters int, rng *rand.Rand) CI
		ref  func([]float64) float64
	}{
		{"median", MedianPercentChange, Median},
		{"mean", MeanPercentChange, Mean},
	}
	seed := int64(0)
	for _, sz := range sizes {
		for _, kind := range kinds {
			for _, iters := range []int{1, 400} {
				seed++
				gen := rand.New(rand.NewSource(seed))
				tr, ct := oracleSample(kind, sz[0], gen), oracleSample(kind, sz[1], gen)
				for _, st := range paths {
					name := fmt.Sprintf("%s/%s/n=%dx%d/iters=%d", st.name, kind, sz[0], sz[1], iters)
					refRng, fastRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					want := refBootstrapPercentChange(tr, ct, st.ref, iters, refRng)
					got := st.fast(tr, ct, iters, fastRng)
					if !sameBits(got.Point, want.Point) || !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) {
						t.Errorf("%s: got %v, want %v (bits differ)", name, got, want)
					}
					if a, b := fastRng.Int63(), refRng.Int63(); a != b {
						t.Errorf("%s: rng state differs afterwards (next draw %d, want %d)", name, a, b)
					}
				}
			}
		}
	}
}

func TestBootstrapOracleCoversEdgeCases(t *testing.T) {
	// The oracle sweep above only means something if its inputs reach the
	// edge cases: NaN deltas from a zero-median control, NaN medians, and
	// medians that are zero of either sign.
	gen := rand.New(rand.NewSource(1))
	ct := oracleSample("zero-median", 101, gen)
	if ci := MedianPercentChange(ct, ct, 400, gen); !math.IsNaN(ci.Point) || !math.IsNaN(ci.Lo) {
		t.Errorf("zero-median control: got %v, want NaN point and lower bound", ci)
	}
	zeros := oracleSample("signed-zeros", 1000, gen)
	neg := 0
	for _, x := range zeros {
		if x == 0 && math.Signbit(x) {
			neg++
		}
	}
	if neg == 0 || Median(zeros) != 0 {
		t.Errorf("signed-zeros sample: %d negative zeros, median %v", neg, Median(zeros))
	}
	nan := oracleSample("nan", 7, rand.New(rand.NewSource(3)))
	r := newRankedSample(nan)
	sawNaN := false
	for range 400 {
		sawNaN = sawNaN || math.IsNaN(r.resampleMedian(gen))
	}
	if !sawNaN {
		t.Error("nan sample: no resample median was NaN")
	}
}

var benchSink CI

// BenchmarkMedianPercentChange times one Table 2 metric at production
// scale: 2000 sessions per arm, 400 resamples.
func BenchmarkMedianPercentChange(b *testing.B) {
	gen := rand.New(rand.NewSource(1))
	tr, ct := oracleSample("continuous", 2000, gen), oracleSample("continuous", 2000, gen)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = MedianPercentChange(tr, ct, 400, rng)
	}
}
