package lab

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// goldenLabFiguresHash is the FNV-1a hash of the fixed-seed Fig 4 burst
// sweep, the Table 1 limiter ablation and the TCP, HTTP and video Fig 8
// neighbors below. It complements goldenLabHash, which covers only the
// single-flow and UDP-neighbor paths: these scenarios additionally run CBR
// cross traffic, the TCP RTT t-digest (the ablation's MeanRTTms is its
// median) and the bulk and HTTP TCP apps. Floats are hashed by their bit
// patterns, so a last-bit drift is caught. Performance-only changes must
// keep it intact.
const goldenLabFiguresHash = "8e6bc42a4ff951cf"

// TestGoldenLabFigures locks the byte-level results of the lab figures
// not already covered by TestGoldenLabTraces.
func TestGoldenLabFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("lab experiment")
	}
	h := fnv.New64a()
	for _, p := range BurstSizeExperiment([]int{4, 40}, 10, 3) {
		hashInts(h, int64(p.Burst))
		hashFloats(h, p.RetxFraction, p.RetxChangePct, float64(p.Throughput), p.VMAF)
	}
	for _, r := range AblationLimiters(8, 3) {
		fmt.Fprintf(h, "%s\n", r.Name)
		hashFloats(h, r.RetxFraction, float64(r.Throughput), r.MeanRTTms)
	}
	for _, n := range []NeighborResult{TCPNeighbor(20, 3), HTTPNeighbor(20, 3), VideoNeighbor(6, 2, 3)} {
		hashFloats(h, n.Control, n.Sammy)
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if got != goldenLabFiguresHash {
		t.Errorf("golden lab figures hash = %s, want %s\n"+
			"(Fig 4, the limiter ablation or a Fig 8 neighbor is no longer "+
			"bit-identical — only acceptable for intentional semantic changes)", got, goldenLabFiguresHash)
	}
}

func hashFloats(h hash.Hash64, vs ...float64) {
	for _, v := range vs {
		hashInts(h, int64(math.Float64bits(v)))
	}
}

func hashInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
