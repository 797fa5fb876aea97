package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenanceJSON describes what ran and where, printed with every result.
func provenanceJSON(workload string, opts options) string {
	p := map[string]any{
		"workload":   workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds.Seconds(),
		"trace":      opts.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    opts.workers,
		"cpu":        cpuModel(),
		"transport":  transportFor(workload),
		// With at most two workers on a 2-core reference box, nothing here
		// shows how users/s scales with more workers or how more pacing
		// wheels contend.
		"multicore_scaling": "unmeasured",
	}
	rev, modified := "unavailable", "unavailable"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	p["vcs_revision"] = rev
	p["vcs_modified"] = modified
	b, _ := json.Marshal(p) // a map of strings, numbers and bools always marshals
	return string(b)
}

// transportFor says what the workload's traffic crossed.
func transportFor(workload string) string {
	if workload == "edge" {
		return "loopback TCP (no real link)"
	}
	return "none (in-process model)"
}

// cpuModel reads the processor's model name from the kernel, or reports it
// unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unavailable"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unavailable"
}
