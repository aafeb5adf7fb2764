package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp records what produced a result.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Sizes      map[string]int `json:"sizes"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	// GitCommit is "none" in a checkout without .git.
	GitCommit string `json:"git_commit"`
}

func newStamp(name string, o options) stamp {
	return stamp{
		Workload:   name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Sizes:      sizesFor(name, o.tiny),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
	}
}

func sizesFor(name string, tiny bool) map[string]int {
	switch name {
	case "author_edits":
		return authorSizesFor(tiny).table()
	case "serve_reads":
		return serveSizesFor(tiny).table()
	case "fleet_push":
		return pushSizesFor(tiny).table()
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory without running git.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if h, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(h))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a bypassed layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
