package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/abtest"
)

// testSeed is a seed the workload shapes were not tuned on.
const testSeed = 9173

// shrink cuts every workload to a tiny size for the test's duration.
func shrink(t *testing.T) {
	t.Helper()
	pop, t2, users, chunks := popSize, t2Size, edgeMixUsers, edgeMixChunks
	popSize = abSize{users: 240, sessions: 2, chunks: 30}
	t2Size = abSize{users: 240, sessions: 3, chunks: 40}
	edgeMixUsers, edgeMixChunks = 6, 6
	t.Cleanup(func() { popSize, t2Size, edgeMixUsers, edgeMixChunks = pop, t2, users, chunks })
}

func testOptions(t *testing.T, trace bool) options {
	return options{seed: testSeed, seconds: time.Nanosecond, trace: trace, workers: 2,
		workDir: t.TempDir(), log: io.Discard}
}

// runResult executes a workload through the same path main uses and parses
// the final stdout line.
func runResult(t *testing.T, name string, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	code := execute(name, workloads[name], testOptions(t, trace), &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, out.String())
	}
	if code != 0 || !res.Correct {
		t.Fatalf("%s (trace %v): exit %d, result %+v\n%s", name, trace, code, res, out.String())
	}
	return res, out.String()
}

func TestWorkloadsEndToEnd(t *testing.T) {
	shrink(t)
	for _, name := range []string{"population", "table2", "lab", "edge"} {
		t.Run(name, func(t *testing.T) {
			res, _ := runResult(t, name, false)
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range catalog {
				v, ok := res.Metrics[m.name]
				if m.layer {
					if ok {
						t.Errorf("per-layer metric %s in an untraced result", m.name)
					}
					continue
				}
				if !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
		})
	}
}

// TestWorkloadsTraced checks the traced runs: their replays and decorators
// pass the self-checks, every per-layer metric is printed, and each layer
// a workload crosses reports work.
func TestWorkloadsTraced(t *testing.T) {
	shrink(t)
	exercised := map[string][]string{
		"population": {"netmodel.downloads", "abr.decisions", "player.sessions", "abtest.sketch_adds",
			"abtest.checkpoint_writes", "abtest.checkpoint_bytes", "abtest.checkpoint_read_ms", "stats.welch_ms"},
		"table2": {"netmodel.downloads", "abr.decisions", "player.sessions", "abtest.gen_s", "stats.bootstrap_s"},
		"lab":    {"lab.fig4_s", "lab.fig7_s", "lab.fig8_s", "lab.ablation_s", "sim.events", "sim.packets", "tcp.segments"},
		"edge": {"overload.admit_us_p50", "cdn.serve_ms_p50", "cdn.bytes", "pacing.wakeups",
			"pacing.releases_per_chunk", "client.ttfb_ms_p50", "edge.pace_attained_p50"},
	}
	for name, want := range exercised {
		t.Run(name, func(t *testing.T) {
			res, out := runResult(t, name, true)
			for _, m := range catalog {
				if _, ok := res.Metrics[m.name]; ok != m.layer {
					t.Errorf("metric %s present=%v in a traced result", m.name, ok)
				}
			}
			for _, m := range want {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
			if !strings.Contains(out, "predicted wall") {
				t.Errorf("no ledger printed:\n%s", out)
			}
		})
	}
}

// TestReplayMatchesABRDecisions checks the replica's own invariant: one ABR
// decision per recorded chunk, and every replayed download reproduces its
// record.
func TestReplayMatchesABRDecisions(t *testing.T) {
	cfg := abConfig(abSize{users: 30, sessions: 2, chunks: 20}, testSeed, 2)
	rp := newReplica(cfg, abArms(), 2)
	rp.runUsers(abtest.GeneratePopulation(cfg.Population))
	rep := newReport()
	l := rp.checkReplay(rep)
	if rep.gateErr != nil {
		t.Fatal(rep.gateErr)
	}
	if want := int64(30 * (preExpChunks + 2*2*20)); l.downloads != want || l.chunks != want {
		t.Fatalf("downloads %d, chunks %d, want %d", l.downloads, l.chunks, want)
	}
}

// TestCorruptCheckpointFailsGate flips a byte in one shard checkpoint
// between the live run and the resume; the resume re-runs that shard, which
// the gate must reject.
func TestCorruptCheckpointFailsGate(t *testing.T) {
	cfg := abConfig(abSize{users: 80, sessions: 2, chunks: 20}, testSeed, 2)
	dir := filepath.Join(t.TempDir(), "ckpt")
	run, err := popLive(cfg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean := newReport()
	if err := popResume(cfg, dir, run, clean); err != nil || clean.gateErr != nil {
		t.Fatalf("clean resume: %v, gate %v", err, clean.gateErr)
	}

	path := filepath.Join(dir, "shard-0003.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if err := popResume(cfg, dir, run, rep); err != nil {
		t.Fatal(err)
	}
	if rep.gateErr == nil || !strings.Contains(rep.gateErr.Error(), "resume re-read") {
		t.Fatalf("gate passed a corrupted checkpoint: %v", rep.gateErr)
	}
}

// corruptByte serves every body with byte at offset 1000 of each response
// changed.
type corruptByte struct {
	http.ResponseWriter
	off int64
}

func (c *corruptByte) Write(p []byte) (int, error) {
	if i := 1000 - c.off; i >= 0 && i < int64(len(p)) {
		q := append([]byte(nil), p...)
		q[i] ^= 0x20
		p = q
	}
	n, err := c.ResponseWriter.Write(p)
	c.off += int64(n)
	return n, err
}

func (c *corruptByte) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func TestWrongFillerByteFailsGate(t *testing.T) {
	shrink(t)
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(&corruptByte{ResponseWriter: w}, r)
		})
	}
	rep, err := edgeWorkload(testOptions(t, false), wrap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.gateErr == nil || !strings.Contains(rep.gateErr.Error(), "differs from cdn.FillerByte") {
		t.Fatalf("gate passed a corrupted body: %v", rep.gateErr)
	}
}

func TestFillerCheck(t *testing.T) {
	body := make([]byte, 100000)
	copy(body, edgePattern)
	for i := len(edgePattern); i < len(body); i++ {
		body[i] = edgePattern[i%26]
	}
	for _, step := range []int{1, 7, 26, 4096, 32768} {
		chk := &fillerCheck{bad: -1}
		for off := 0; off < len(body); off += step {
			chk.Write(body[off:min(off+step, len(body))])
		}
		if err := chk.verify(100000); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	body[777] = 'Z'
	chk := &fillerCheck{bad: -1}
	chk.Write(body)
	if chk.bad != 777 {
		t.Fatalf("first bad offset %d, want 777", chk.bad)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range catalog {
		if m.layer {
			layer = append(layer, m)
		} else {
			e2e = append(e2e, m)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.1); got != 1.4 {
		t.Errorf("p10 = %v", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input")
	}
	if median(nil) != 0 {
		t.Error("median of nothing")
	}
}
