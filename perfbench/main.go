// Command perfbench is the repository's benchmark. It drives the real
// Configerator stack through its public APIs, from one process, on one of
// three seeded workloads, checks the outputs, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	bash perfbench/run.sh --workload author_edits --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the benchmark alternates untraced rounds with
// rounds that have an obs.Registry attached and spans recorded, checks that
// all of them produced identical sim-clock results and layer counts, and
// prints the per-layer metrics; the spans go to .bench_build/trace/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// tiny shrinks every workload to test size.
	tiny bool
}

// world is one set-up instance of a workload. run performs its fixed,
// seeded episode once, timing it, and then checks the outputs.
type world interface {
	run() (*episode, error)
}

// setupFunc builds a world. traced attaches an obs.Registry and span
// recording to it.
type setupFunc func(o options, traced bool) (world, error)

// workloads maps each workload name to its set-up function.
var workloads = map[string]setupFunc{
	"author_edits": setupAuthorEdits,
	"serve_reads":  setupServeReads,
	"fleet_push":   setupFleetPush,
}

// episode is what one run of a world measured.
type episode struct {
	wall   time.Duration // timed-phase wall time
	ops    int64         // operations completed in the timed phase
	opUS   []float64     // per-operation wall latency, µs
	liveMS []float64     // per-operation modeled (sim-clock) latency, ms
	heapMB float64       // heap in use after a forced GC at the end of the timed phase

	attempted, failed int64
	problems          []string // output-check failures

	// fingerprint holds the sim-clock results and layer counts that must
	// repeat exactly for one seed, traced or not.
	fingerprint map[string]float64
	// layers are the per-layer metrics (filled on traced runs).
	layers map[string]float64
	// tracers are the span recorders of a traced run, by goroutine role.
	tracers map[string]*tracer
}

// round is one set-up plus one episode.
type round struct {
	setup  time.Duration
	ep     *episode
	traced bool
}

func runRound(setup setupFunc, o options, traced bool) (round, error) {
	runtime.GC()
	start := time.Now()
	w, err := setup(o, traced)
	if err != nil {
		return round{}, fmt.Errorf("setup: %w", err)
	}
	took := time.Since(start)
	runtime.GC() // the episode starts without the set-up's garbage
	ep, err := w.run()
	if err != nil {
		return round{}, err
	}
	return round{setup: took, ep: ep, traced: traced}, nil
}

// minRounds is the least number of untraced rounds per run: set-up time is
// the median of this many set-ups, and the determinism gate compares this
// many episodes.
const minRounds = 3

// tracePairs is the number of untraced-then-traced round pairs a traced run
// makes. Alternating the two kinds lets each traced round be compared with
// the untraced round just before it, on a machine whose speed drifts.
const tracePairs = 3

// report is a run's outcome before printing.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs a workload per the options and returns the report plus the
// rounds it made.
func measure(name string, o options) (report, []round, error) {
	setup, ok := workloads[name]
	if !ok {
		return report{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	var rounds []round
	if o.trace {
		for i := 0; i < tracePairs; i++ {
			for _, traced := range []bool{false, true} {
				r, err := runRound(setup, o, traced)
				if err != nil {
					return report{}, nil, err
				}
				rounds = append(rounds, r)
			}
		}
	} else {
		budget := time.Duration(o.seconds * float64(time.Second))
		var timed time.Duration
		for len(rounds) < minRounds || timed < budget {
			r, err := runRound(setup, o, false)
			if err != nil {
				return report{}, nil, err
			}
			rounds = append(rounds, r)
			timed += r.ep.wall
		}
	}
	rep := report{Correct: true}
	for _, r := range rounds {
		rep.Attempted += r.ep.attempted
		rep.Failed += r.ep.failed
		if len(r.ep.problems) > 0 {
			rep.Correct = false
		}
	}
	if err := sameFingerprints(rounds); err != nil {
		return report{}, rounds, err
	}
	if o.trace {
		rep.Metrics = layerMetrics(rounds)
	} else {
		rep.Metrics = endToEnd(rounds)
	}
	return rep, rounds, nil
}

// sameFingerprints is the determinism gate: every round of one seed must
// produce identical sim-clock results and layer counts. A traced round
// differing from an untraced one means tracing changed what it observed.
func sameFingerprints(rounds []round) error {
	ref := rounds[0].ep.fingerprint
	for i, r := range rounds[1:] {
		fp := r.ep.fingerprint
		for _, k := range sortedKeys(ref, fp) {
			a, okA := ref[k]
			b, okB := fp[k]
			if !okA || !okB || a != b {
				return fmt.Errorf("determinism gate: round %d %s = %v, round 1 had %v", i+2, k, b, a)
			}
		}
	}
	return nil
}

func sortedKeys(ms ...map[string]float64) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// endToEnd aggregates untraced rounds: latency samples are pooled across
// rounds; throughput, set-up time and retained heap are medians over
// rounds, so one round slowed by the shared machine does not move them.
// The sim-clock percentiles come from the first round; the gate has shown
// every round equal.
func endToEnd(rounds []round) map[string]metric {
	var opUS, perS, setupS, heap []float64
	for _, r := range rounds {
		opUS = append(opUS, r.ep.opUS...)
		perS = append(perS, float64(r.ep.ops)/r.ep.wall.Seconds())
		setupS = append(setupS, r.setup.Seconds())
		heap = append(heap, r.ep.heapMB)
	}
	live := rounds[0].ep.liveMS
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"retained_heap_mb": {median(heap), "MB"},
		"throughput_per_s": {median(perS), "1/s"},
		"latency_p50_us":   {quantile(opUS, 0.50), "us"},
		"latency_p95_us":   {quantile(opUS, 0.95), "us"},
		"live_sim_p50_ms":  {quantile(live, 0.50), "ms"},
		"live_sim_p95_ms":  {quantile(live, 0.95), "ms"},
	}
}

// layerUnits declares every per-layer metric with its unit. A workload
// reports the layers it exercises; the rest read 0, meaning the workload
// bypasses that layer.
var layerUnits = map[string]string{
	"core.submit_self_ms":                  "ms",
	"landingstrip.gate_ms":                 "ms",
	"landingstrip.rejected":                "count",
	"dataflow.analyze_ms":                  "ms",
	"dataflow.recompute_per_edit":          "count",
	"dataflow.memo_hits_per_edit":          "count",
	"cdl.compile_ms":                       "ms",
	"cdl.parse_miss_per_edit":              "count",
	"cdl.result_hit_ratio":                 "ratio",
	"depgraph.recompile_set_size":          "count",
	"vcs.commit_ms":                        "ms",
	"vcs.files_at_head":                    "count",
	"vcs.hash_ns_per_kb":                   "ns",
	"simnet.events_per_edit":               "count",
	"simnet.ns_per_event":                  "ns",
	"simnet.events_per_update":             "count",
	"simnet.bytes_per_update":              "B",
	"simnet.drive_ms_per_s":                "ms/s",
	"zeus.waves_per_edit":                  "count",
	"zeus.ops_per_wave":                    "count",
	"zeus.push_delta_frac":                 "ratio",
	"zeus.fetch_full":                      "count",
	"proxy.read_ns":                        "ns",
	"proxy.versions_applied":               "count",
	"proxy.fetch_per_update":               "count",
	"proxy.delta_fallback":                 "count",
	"proxy.heap_kb_per_proxy":              "KB",
	"confclient.get_ns":                    "ns",
	"confclient.memo_hit_ratio":            "ratio",
	"confclient.decodes_per_version":       "count",
	"confclient.allocs_per_get":            "count",
	"gatekeeper.check_ns":                  "ns",
	"gatekeeper.restraint_evals_per_check": "count",
	"gatekeeper.allocs_per_check":          "count",
	"serve.req_p99_us":                     "us",
	"trace_overhead_pct":                   "%",
}

// layerMetrics reports each per-layer metric as its median over the traced
// rounds, plus the tracing overhead: the median over the round pairs of how
// much longer an operation took in the traced round than in the untraced
// round before it.
func layerMetrics(rounds []round) map[string]metric {
	perOp := func(ep *episode) float64 { return ep.wall.Seconds() / float64(ep.ops) }
	values := make(map[string][]float64, len(layerUnits))
	var overhead []float64
	for i, r := range rounds {
		if !r.traced {
			continue
		}
		for name := range layerUnits {
			values[name] = append(values[name], r.ep.layers[name])
		}
		if i > 0 && !rounds[i-1].traced {
			overhead = append(overhead, 100*(perOp(r.ep)/perOp(rounds[i-1].ep)-1))
		}
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{median(values[name]), unit}
	}
	out["trace_overhead_pct"] = metric{median(overhead), "%"}
	return out
}

func main() {
	var o options
	name := flag.String("workload", "", "workload to run: author_edits, serve_reads or fleet_push")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 25, "timed wall seconds to measure (at least three rounds run)")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced rounds and print per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	if err := mainErr(*name, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, o options) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	st := newStamp(name, o)
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("encode stamp: %w", err)
	}
	fmt.Printf("stamp %s\n", stampJSON)
	rep, rounds, err := measure(name, o)
	if err != nil {
		return err
	}
	for i, r := range rounds {
		fmt.Printf("round %d: traced %v setup %.3fs timed %.3fs ops %d attempted %d failed %d\n",
			i+1, r.traced, r.setup.Seconds(), r.ep.wall.Seconds(), r.ep.ops, r.ep.attempted, r.ep.failed)
		for _, p := range r.ep.problems {
			fmt.Printf("round %d check failed: %s\n", i+1, p)
		}
	}
	if err := saveResult(name, o, st, rep, rounds); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// outDir is where runs leave their records, relative to the checkout root.
const outDir = ".bench_build"

// saveResult writes the stamped result, and a traced run's spans, under
// outDir.
func saveResult(name string, o options, st stamp, rep report, rounds []round) error {
	base := fmt.Sprintf("%s-seed%d-trace0", name, o.seed)
	if o.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", name, o.seed)
	}
	doc := struct {
		Stamp  stamp  `json:"stamp"`
		Result report `json:"result"`
	}{st, rep}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result file: %w", err)
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	if !o.trace {
		return nil
	}
	tracers := rounds[len(rounds)-1].ep.tracers
	if len(tracers) == 0 {
		return errors.New("traced round recorded no spans")
	}
	return writeSpans(filepath.Join(outDir, "trace", base+".json"), tracers)
}
