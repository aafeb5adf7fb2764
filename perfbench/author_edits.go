package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/cluster"
	"configerator/internal/core"
	"configerator/internal/depgraph"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/stats"
	"configerator/internal/vcs"
)

// author_edits: one author in a closed loop lands single-file edits through
// core.Pipeline.Submit, on a repository of shared-lib and sitevar .cinc
// files feeding .cconf artifacts, with a 4-cluster fleet subscribed to the
// artifacts. This is the mutation plane: compile, lint, dataflow, landing
// strip, vcs, tailer. Every edit skips canary: canary soak is fixed modeled
// time, and its wall cost is simnet work fleet_push measures.

type authorSizes struct {
	artifacts, libs, sitevars int
	serversPerCluster         int // 4 clusters
	edits                     int // per episode
}

func authorSizesFor(tiny bool) authorSizes {
	if tiny {
		return authorSizes{artifacts: 40, libs: 8, sitevars: 4, serversPerCluster: 2, edits: 10}
	}
	return authorSizes{artifacts: 2000, libs: 400, sitevars: 200, serversPerCluster: 25, edits: 60}
}

func (s authorSizes) table() map[string]int {
	return map[string]int{"artifacts": s.artifacts, "libs": s.libs, "sitevars": s.sitevars,
		"clusters": 4, "servers_per_cluster": s.serversPerCluster, "edits_per_round": s.edits}
}

// The fixed topology keeps every edit under core.DefaultHighRadiusArtifacts:
// artifact i imports lib i%libs, lib l imports sitevars l%sitevars and
// (l+1)%sitevars, so a sitevar reaches 2·artifacts/sitevars artifacts.
func svPath(s int) string  { return fmt.Sprintf("sitevars/sv%03d.cinc", s) }
func libPath(l int) string { return fmt.Sprintf("lib/lib%03d.cinc", l) }
func appPath(i int) string { return fmt.Sprintf("svc/app%04d.cconf", i) }

func svSrc(s, v int) []byte { return []byte(fmt.Sprintf("let SV%d = %d;\n", s, v)) }

func libSrc(sz authorSizes, l, k int) []byte {
	a, b := l%sz.sitevars, (l+1)%sz.sitevars
	return []byte(fmt.Sprintf("import %q;\nimport %q;\nlet BASE%d = SV%d + SV%d + %d;\nlet NAME%d = \"lib%d\";\n",
		svPath(a), svPath(b), l, a, b, k, l, l))
}

func appSrc(sz authorSizes, i, m int) []byte {
	l := i % sz.libs
	return []byte(fmt.Sprintf("import %q;\nlet scaled = BASE%d * %d;\nexport {value: scaled, name: NAME%d, rank: %d};\n",
		libPath(l), l, m, l, i))
}

// authorEdit is one seeded single-file edit.
type authorEdit struct {
	kind string // leaf, lib, sitevar
	path string
	src  []byte
}

// authorInputs makes the seeded initial tree and edit stream. The edit mix
// is exactly 7 leaf, 2 lib and 1 sitevar edit per block of ten, in seeded
// order; every edit writes a value no earlier version held, so every edit
// changes its artifacts.
func authorInputs(sz authorSizes, seed uint64) (map[string][]byte, []authorEdit) {
	rng := stats.NewRNG(seed)
	files := make(map[string][]byte, sz.artifacts+sz.libs+sz.sitevars)
	for s := 0; s < sz.sitevars; s++ {
		files[svPath(s)] = svSrc(s, 100+rng.Intn(900))
	}
	for l := 0; l < sz.libs; l++ {
		files[libPath(l)] = libSrc(sz, l, rng.Intn(100))
	}
	for i := 0; i < sz.artifacts; i++ {
		files[appPath(i)] = appSrc(sz, i, 1+rng.Intn(50))
	}
	deck := []string{"leaf", "leaf", "leaf", "leaf", "leaf", "leaf", "leaf", "lib", "lib", "sitevar"}
	edits := make([]authorEdit, 0, sz.edits)
	for n := 0; n < sz.edits; n++ {
		if n%len(deck) == 0 {
			for i := len(deck) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				deck[i], deck[j] = deck[j], deck[i]
			}
		}
		v := 1000 + n
		var e authorEdit
		switch kind := deck[n%len(deck)]; kind {
		case "leaf":
			i := rng.Intn(sz.artifacts)
			e = authorEdit{kind, appPath(i), appSrc(sz, i, v)}
		case "lib":
			l := rng.Intn(sz.libs)
			e = authorEdit{kind, libPath(l), libSrc(sz, l, v)}
		default:
			s := rng.Intn(sz.sitevars)
			e = authorEdit{kind, svPath(s), svSrc(s, v)}
		}
		edits = append(edits, e)
	}
	return files, edits
}

// delivery is one subscriber callback seen during an edit.
type delivery struct {
	path string
	hash uint64
	at   time.Time
}

type authorWorld struct {
	p      *core.Pipeline
	fleet  *cluster.Fleet
	reg    *obs.Registry
	roots  []string
	files  map[string][]byte // the initial tree
	edits  []authorEdit
	subs   map[string][]*cluster.Server // Zeus path → subscribing servers
	events []delivery                   // callbacks during the current edit

	// Traced runs only.
	tr  *tracer
	cur int   // the open core.Submit span
	req int64 // the current edit's request id
}

func setupAuthorEdits(o options, traced bool) (world, error) {
	sz := authorSizesFor(o.tiny)
	w := &authorWorld{subs: make(map[string][]*cluster.Server), cur: -1}
	w.files, w.edits = authorInputs(sz, o.seed)
	if traced {
		w.reg = obs.New()
		w.tr = newTracer()
	}
	cfg := cluster.SmallConfig(sz.serversPerCluster, o.seed)
	cfg.Obs = w.reg
	w.fleet = cluster.New(cfg)
	w.fleet.Net.RunFor(12 * time.Second) // elect the Zeus leader

	repos := vcs.NewRepoSet("configerator")
	var changes []vcs.Change
	for _, path := range sortedPaths(w.files) {
		changes = append(changes, vcs.Change{Path: path, Content: w.files[path]})
		if strings.HasSuffix(path, ".cconf") {
			w.roots = append(w.roots, path)
		}
	}
	if _, err := repos.CommitChanges("import", "bulk import", w.fleet.Net.Now(), changes...); err != nil {
		return nil, fmt.Errorf("import sources: %w", err)
	}
	w.p = core.New(core.Options{Repos: repos, Fleet: w.fleet, Obs: w.reg})
	results, err := w.p.Engine.CompileAll(repos, w.roots)
	if err != nil {
		return nil, fmt.Errorf("compile imported tree: %w", err)
	}
	changes = changes[:0]
	for _, res := range results {
		changes = append(changes, vcs.Change{Path: core.ArtifactPath(res.Path), Content: res.JSON})
	}
	if _, err := repos.CommitChanges("import", "compiled artifacts", w.fleet.Net.Now(), changes...); err != nil {
		return nil, fmt.Errorf("import artifacts: %w", err)
	}
	if rep := w.p.Dataflow.Analyze(repos, w.roots); len(rep.Errors) > 0 {
		return nil, fmt.Errorf("analyze imported tree: %s", rep.Errors[0])
	}
	w.fleet.Net.RunFor(20 * time.Second) // the tailer ships the import to Zeus

	// Each cluster subscribes to a seeded quarter of the artifacts.
	clusters := w.fleet.ClusterNames()
	perm := stats.NewRNG(o.seed ^ 0x5eed).Perm(len(w.roots))
	for i, root := range w.roots {
		zpath := core.ZeusPath(core.ArtifactPath(root))
		for _, s := range w.fleet.Cluster(clusters[perm[i]%len(clusters)]) {
			w.subs[zpath] = append(w.subs[zpath], s)
			s.Proxy.Subscribe(zpath, func(e proxy.Entry) {
				w.events = append(w.events, delivery{e.Path, e.Hash, w.fleet.Net.Now()})
			})
		}
	}
	w.fleet.Net.RunFor(10 * time.Second)
	for zpath, servers := range w.subs {
		for _, s := range servers {
			if r := s.Proxy.Read(zpath); !r.OK {
				return nil, fmt.Errorf("%s never reached %s at set-up", zpath, s.ID)
			}
		}
	}
	if traced {
		strip := w.p.Strip(w.roots[0])
		gate := strip.Gate
		strip.Gate = func(d *vcs.Diff) error {
			id := w.tr.begin("landingstrip.Gate", w.cur, w.req)
			err := gate(d)
			w.tr.end(id)
			return err
		}
	}
	return w, nil
}

func sortedPaths(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (w *authorWorld) run() (*episode, error) {
	ep := &episode{fingerprint: make(map[string]float64), layers: make(map[string]float64)}
	eng0 := w.p.Engine.Counters().Snapshot()
	ix0 := w.p.Dataflow.Counters().Snapshot()
	ev0, bytes0 := w.fleet.Net.Events, w.fleet.Net.BytesSent
	waves0 := w.reg.Counters().Get("zeus.propose.waves")
	strip := w.p.Strip(w.roots[0])
	rejected0 := strip.Rejected
	var compiled int

	start := time.Now()
	for n, e := range w.edits {
		w.req = int64(n)
		w.events = w.events[:0]
		simStart := w.p.Now()
		t0 := time.Now()
		w.cur = w.tr.begin("core.Submit", -1, w.req)
		rep := w.p.Submit(&core.ChangeRequest{
			Author: "author", Title: fmt.Sprintf("edit %d (%s)", n, e.kind),
			Sources: map[string][]byte{e.path: e.src}, SkipCanary: true,
		})
		w.tr.end(w.cur)
		ep.opUS = append(ep.opUS, float64(time.Since(t0).Nanoseconds())/1e3)
		ep.attempted++
		live, ok := w.delivered(rep)
		if !rep.OK() || !ok {
			ep.failed++
			if !rep.OK() {
				ep.problems = append(ep.problems, fmt.Sprintf("edit %d failed at %s: %v", n, rep.FailedStage, rep.Err))
			}
			continue
		}
		compiled += len(rep.Compiled)
		ep.liveMS = append(ep.liveMS, float64((live.Sub(simStart)).Nanoseconds())/1e6)
	}
	ep.wall = time.Since(start)
	ep.ops = int64(len(w.edits))
	ep.heapMB = heapMB()

	edits := float64(len(w.edits))
	eng := delta(w.p.Engine.Counters().Snapshot(), eng0)
	ix := delta(w.p.Dataflow.Counters().Snapshot(), ix0)
	fp := ep.fingerprint
	fp["live_sim_p50_ms"] = quantile(ep.liveMS, 0.5)
	fp["live_sim_p95_ms"] = quantile(ep.liveMS, 0.95)
	fp["live_sim_sum_ms"] = sum(ep.liveMS)
	fp["simnet.events"] = float64(w.fleet.Net.Events - ev0)
	fp["simnet.bytes"] = float64(w.fleet.Net.BytesSent - bytes0)
	fp["cdl.parse.miss"] = float64(eng["parse.miss"])
	fp["cdl.result.hit"] = float64(eng["result.hit"])
	fp["cdl.result.miss"] = float64(eng["result.miss"])
	fp["dataflow.recompute"] = float64(ix["provenance.recompute"])
	fp["dataflow.memo"] = float64(ix["provenance.memo"])
	fp["artifacts_compiled"] = float64(compiled)
	fp["vcs.files_at_head"] = float64(w.p.Repos.TotalFiles())
	fp["failed"] = float64(ep.failed)

	ep.problems = append(ep.problems, w.check()...)

	if w.tr != nil {
		lay := ep.layers
		lay["landingstrip.rejected"] = float64(strip.Rejected - rejected0)
		lay["dataflow.recompute_per_edit"] = fp["dataflow.recompute"] / edits
		lay["dataflow.memo_hits_per_edit"] = fp["dataflow.memo"] / edits
		lay["cdl.parse_miss_per_edit"] = fp["cdl.parse.miss"] / edits
		lay["cdl.result_hit_ratio"] = ratio(fp["cdl.result.hit"], fp["cdl.result.hit"]+fp["cdl.result.miss"])
		lay["depgraph.recompile_set_size"] = float64(compiled) / edits
		lay["vcs.files_at_head"] = fp["vcs.files_at_head"]
		lay["simnet.events_per_edit"] = fp["simnet.events"] / edits
		lay["zeus.waves_per_edit"] = float64(w.reg.Counters().Get("zeus.propose.waves")-waves0) / edits
		if err := w.replay(); err != nil {
			return nil, err
		}
		times := w.tr.times()
		lay["core.submit_self_ms"] = ms(times["core.Submit"].Self) / edits
		lay["landingstrip.gate_ms"] = ms(times["landingstrip.Gate"].Total) / edits
		lay["dataflow.analyze_ms"] = ms(times["dataflow.Analyze"].Total) / float64(times["dataflow.Analyze"].Count)
		lay["cdl.compile_ms"] = ms(times["cdl.CompileAll"].Total) / float64(times["cdl.CompileAll"].Count)
		lay["vcs.commit_ms"] = ms(times["vcs.CommitChanges"].Total) / float64(times["vcs.CommitChanges"].Count)
		lay["vcs.hash_ns_per_kb"] = hashNSPerKB(w.artifactPayloads())
		ep.tracers = map[string]*tracer{"author": w.tr}
	}
	return ep, nil
}

// delivered matches the edit's subscriber callbacks against its compiled
// artifacts: it reports when the last subscriber of any of them got the new
// bytes, and false when some subscriber never did.
func (w *authorWorld) delivered(rep *core.ChangeReport) (time.Time, bool) {
	var last time.Time
	for art, data := range rep.Compiled {
		zpath := core.ZeusPath(art)
		want := vcs.HashBytes(data)
		got := 0
		for _, d := range w.events {
			if d.path == zpath && d.hash == want {
				got++
				if d.at.After(last) {
					last = d.at
				}
			}
		}
		if got < len(w.subs[zpath]) {
			return last, false
		}
	}
	return last, len(rep.Compiled) > 0
}

// check verifies the round's end state: every committed artifact equals a
// fresh engine's compile of the final sources, and every subscriber serves
// the head bytes.
func (w *authorWorld) check() []string {
	var problems []string
	results, err := cdl.NewEngine().CompileAll(w.p.Repos, w.roots)
	if err != nil {
		return []string{fmt.Sprintf("fresh compile of final sources: %v", err)}
	}
	for _, res := range results {
		art := core.ArtifactPath(res.Path)
		head, err := w.p.Repos.ReadFile(art)
		if err != nil || !bytes.Equal(head, res.JSON) {
			problems = append(problems, fmt.Sprintf("%s: committed artifact differs from a fresh compile", art))
			continue
		}
		zpath := core.ZeusPath(art)
		for _, s := range w.subs[zpath] {
			if r := s.Proxy.Read(zpath); !r.OK || !bytes.Equal(r.Data, head) {
				problems = append(problems, fmt.Sprintf("%s on %s: proxy does not serve head", zpath, s.ID))
			}
		}
	}
	return problems
}

// replay times the layers Submit calls internally, by calling their public
// functions on the same edit stream with shadow instances built from the
// initial tree: dataflow.Index.Analyze, depgraph.Graph.RecompileSet,
// cdl.Engine.CompileAll and vcs.RepoSet.CommitChanges. The pipeline's own
// instances are left untouched so its counters stay comparable.
func (w *authorWorld) replay() error {
	eng := cdl.NewEngine()
	ix := dataflow.NewIndex(eng)
	deps := depgraph.New()
	repos := vcs.NewRepoSet("configerator")
	var changes []vcs.Change
	for _, path := range sortedPaths(w.files) {
		changes = append(changes, vcs.Change{Path: path, Content: w.files[path]})
		if err := deps.ExtractAndSet(path, w.files[path]); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if _, err := repos.CommitChanges("import", "bulk import", time.Time{}, changes...); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	results, err := eng.CompileAll(repos, w.roots)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	changes = changes[:0]
	for _, res := range results {
		changes = append(changes, vcs.Change{Path: core.ArtifactPath(res.Path), Content: res.JSON})
	}
	if _, err := repos.CommitChanges("import", "compiled artifacts", time.Time{}, changes...); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	ix.Analyze(repos, w.roots)
	isTop := func(p string) bool { return strings.HasSuffix(p, ".cconf") }
	for n, e := range w.edits {
		req := int64(n)
		root := w.tr.begin("replay", -1, req)
		fs := overlay{repos, e.path, e.src}
		id := w.tr.begin("dataflow.Analyze", root, req)
		ix.Analyze(fs, w.roots)
		w.tr.end(id)
		id = w.tr.begin("depgraph.RecompileSet", root, req)
		set := deps.RecompileSet([]string{e.path}, isTop)
		w.tr.end(id)
		id = w.tr.begin("cdl.CompileAll", root, req)
		results, err := eng.CompileAll(fs, set)
		w.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay edit %d: %w", n, err)
		}
		changes = append(changes[:0], vcs.Change{Path: e.path, Content: e.src})
		for _, res := range results {
			changes = append(changes, vcs.Change{Path: core.ArtifactPath(res.Path), Content: res.JSON})
		}
		id = w.tr.begin("vcs.CommitChanges", root, req)
		_, err = repos.CommitChanges("author", "replay", time.Time{}, changes...)
		w.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay edit %d: %w", n, err)
		}
		w.tr.end(root)
		eng.InvalidatePaths(append([]string{e.path}, deps.Dependents(e.path)...)...)
		if err := deps.ExtractAndSet(e.path, e.src); err != nil {
			return fmt.Errorf("replay edit %d: %w", n, err)
		}
	}
	return nil
}

// overlay is one staged edit over a repository set.
type overlay struct {
	repos *vcs.RepoSet
	path  string
	src   []byte
}

func (o overlay) ReadFile(path string) ([]byte, error) {
	if path == o.path {
		return o.src, nil
	}
	return o.repos.ReadFile(path)
}

func (w *authorWorld) artifactPayloads() [][]byte {
	var out [][]byte
	for _, root := range w.roots {
		if data, err := w.p.Repos.ReadFile(core.ArtifactPath(root)); err == nil {
			out = append(out, data)
		}
	}
	return out
}

func delta(now, then map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(now))
	for k, v := range now {
		out[k] = v - then[k]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapMB is the heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hashNSPerKB times vcs.HashBytes over the payloads, repeating them until at
// least 64 MiB are hashed.
func hashNSPerKB(payloads [][]byte) float64 {
	var per int
	for _, p := range payloads {
		per += len(p)
	}
	if per == 0 {
		return 0
	}
	reps := (64<<20)/per + 1
	var sink uint64
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range payloads {
			sink ^= vcs.HashBytes(p)
		}
	}
	took := time.Since(start)
	hashSink = sink
	return float64(took.Nanoseconds()) / (float64(reps*per) / 1024)
}

// hashSink keeps the timed hashes from being optimised away.
var hashSink uint64
