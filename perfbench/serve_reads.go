package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"configerator/internal/confclient"
	"configerator/internal/gatekeeper"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/vclock"
	"configerator/internal/vcs"
	"configerator/internal/workload"
	"configerator/internal/zeus"
)

// serve_reads: one server's read path. A request goroutine runs closed-loop
// requests of four confclient.Client.Get and two gatekeeper.Runtime.Check
// calls over Zipf-skewed keys, while a second goroutine drives the sim and
// commits updates beside the reads. This is the serving plane; it bypasses
// cdl, dataflow and vcs commits.
//
// The writes are the server's share of the repository model's busiest day:
// workload.GenerateCommits(ConfigeratorProfile()) gives the repository's
// commits per hour, and the server receives the fraction of them that its
// subscribed paths are of the reference history's configs. One round
// replays that day of sim time, paced evenly over roundWall of wall time.
//
// gatekeeper.Runtime.Bind reloads projects from the sim goroutine, writing
// the runtime's project map without a lock while Check reads it, so the
// request goroutine reloads a project itself (Runtime.Load) when it sees a
// new version of the project's config.

type serveSizes struct {
	paths, projects int
	// repoConfigs is the repository's config count; the server's paths
	// and projects are that share of it, and get that share of the commits.
	repoConfigs int
	day         time.Duration // sim time one round replays
	roundWall   time.Duration // wall time the day is paced over
	step        time.Duration // sim time driven per pacing step
	batch       int           // requests timed together
	timedCalls  int           // calls per layer timed after a traced episode
}

// commitDays is the horizon of the repository commit model; its last
// weeks hold the busiest day, as in the Figure 11 experiment.
const commitDays = 300

func serveSizesFor(tiny bool) serveSizes {
	s := serveSizes{paths: 256, projects: 10, repoConfigs: len(referenceHistory().Configs),
		day: 24 * time.Hour, roundWall: 4 * time.Second, step: time.Minute, batch: 64, timedCalls: 1 << 20}
	if tiny {
		// A larger share of a smaller repository, so the short episode
		// still sees project updates.
		s.paths, s.projects, s.repoConfigs, s.roundWall, s.timedCalls = 16, 2, 1800, 250*time.Millisecond, 1<<12
	}
	return s
}

// stepWall is the wall time each pacing step of sim time takes.
func (s serveSizes) stepWall() time.Duration {
	return time.Duration(float64(s.roundWall) * s.step.Seconds() / s.day.Seconds())
}

func (s serveSizes) table() map[string]int {
	return map[string]int{"paths": s.paths, "projects": s.projects, "repo_configs": s.repoConfigs,
		"commit_model_days": commitDays, "sim_s_per_round": int(s.day / time.Second),
		"wall_ms_per_round":  int(s.roundWall / time.Millisecond),
		"requests_per_batch": s.batch, "gets_per_request": 4, "checks_per_request": 2}
}

// serverCommitTimes is the server's share of the repository model's
// busiest day: hour h carries round(PerHour[h]·subscribed/repoConfigs)
// commits, evenly spaced in the hour, as sim offsets from the day's start.
func serverCommitTimes(sz serveSizes, seed uint64) []time.Duration {
	series := workload.GenerateCommits(workload.ConfigeratorProfile(), commitDays, seed)
	peak := 0
	for d, n := range series.PerDay {
		if n > series.PerDay[peak] {
			peak = d
		}
	}
	share := float64(sz.paths+sz.projects) / float64(sz.repoConfigs)
	var out []time.Duration
	for h, repo := range series.PerHour[peak*24 : peak*24+24] {
		n := int(math.Round(float64(repo) * share))
		for i := 0; i < n; i++ {
			out = append(out, time.Duration(h)*time.Hour+time.Duration((float64(i)+0.5)/float64(n)*float64(time.Hour)))
		}
	}
	return out
}

const (
	getsPerRequest   = 4
	checksPerRequest = 2
	keyStream        = 1 << 16 // pre-drawn Zipf keys, cycled
	checkSampleEvery = 1024    // one check in this many is re-verified
	traceEvery       = 512     // a traced run records spans for one batch in this many
)

// serveBody is a config's content: its path and revision, then filler
// that stays the same across revisions.
func serveBody(path string, rev int, filler []byte) []byte {
	b := []byte(fmt.Sprintf(`{"path":%q,"rev":%d,"pad":"`, path, rev))
	b = append(b, filler...)
	return append(b, '"', '}')
}

// zipfKeys draws n indices in [0, k) with P(i) ∝ 1/(i+1)^s, then maps
// rank to key through a seeded permutation.
func zipfKeys(rng *stats.RNG, k, n int, s float64) []int {
	cdf := make([]float64, k)
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	perm := rng.Perm(k)
	out := make([]int, n)
	for j := range out {
		u := rng.Float64() * total
		out[j] = perm[sort.SearchFloat64s(cdf, u)]
	}
	return out
}

// gkSpec is project i's spec at stage v of its rollout; no two stages are
// equal.
func gkSpec(i, v int) *gatekeeper.ProjectSpec {
	pass := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.0}
	return &gatekeeper.ProjectSpec{Project: fmt.Sprintf("Proj%d", i), Rules: []gatekeeper.RuleSpec{
		{Restraints: []gatekeeper.RestraintSpec{{Name: "employee"}}, PassProbability: 1},
		{Restraints: []gatekeeper.RestraintSpec{
			{Name: "country", Params: gatekeeper.Params{"in": []string{"US", "CA", "GB"}}},
			{Name: "app_version_at_least", Params: gatekeeper.Params{"version": float64(100 + v)}},
			{Name: "friend_count_at_least", Params: gatekeeper.Params{"n": 10.0}},
		}, PassProbability: pass[v%len(pass)]},
		{Restraints: []gatekeeper.RestraintSpec{
			{Name: "platform", Params: gatekeeper.Params{"in": []string{"ios", "android"}}},
		}, PassProbability: pass[(v+i)%len(pass)]},
	}}
}

func gkUser(rng *stats.RNG, id int64) *gatekeeper.User {
	countries := []string{"US", "BR", "IN", "GB", "JP", "DE"}
	platforms := []string{"www", "ios", "android"}
	return &gatekeeper.User{
		ID: id, Employee: rng.Bool(0.01),
		Country: countries[rng.Intn(len(countries))], Region: "r" + countries[rng.Intn(len(countries))],
		Platform: platforms[rng.Intn(len(platforms))], App: "fb4a", AppVersion: 90 + rng.Intn(40),
		FriendCount: rng.Intn(500), AccountAge: time.Duration(rng.Intn(2000)) * 24 * time.Hour, Now: vclock.Epoch,
	}
}

// serveCommit is one scheduled write.
type serveCommit struct {
	at   time.Duration // sim offset from the episode start
	path string
	data []byte
}

// checkSample is one recorded Check for re-verification.
type checkSample struct {
	project int
	spec    []byte
	user    int
	got     bool
}

type serveWorld struct {
	sz     serveSizes
	net    *simnet.Network
	reg    *obs.Registry
	writer *zeus.Client
	px     *proxy.Proxy
	cl     *confclient.Client
	rt     *gatekeeper.Runtime

	paths    []string // config paths
	projPath []string // project config paths
	projects []string // project names
	keys     []int    // Zipf draws over the config paths
	users    []*gatekeeper.User
	picks    []int // project per check, cycled with users
	commits  []serveCommit
	at       map[uint64]int // commit hash → index

	// Written on the sim goroutine, read after it ends.
	issued  []time.Time
	liveMS  []float64
	applied int
	driveNS int64

	// Request goroutine state.
	loaded  []int64  // project config version loaded into rt
	reloads int      // Runtime.Load calls after set-up
	specs   [][]byte // the loaded project configs
	lastRev []int64
	samples []checkSample
	bad     []string

	simTr, reqTr *tracer
}

func setupServeReads(o options, traced bool) (world, error) {
	sz := serveSizesFor(o.tiny)
	w := &serveWorld{sz: sz, at: make(map[uint64]int)}
	if traced {
		w.reg = obs.New()
		w.simTr, w.reqTr = newTracer(), newTracer()
	}
	rng := stats.NewRNG(o.seed)
	w.net = simnet.New(simnet.DefaultLatency(), o.seed)
	w.net.SetObs(w.reg)
	zk := simnet.Placement{Region: "r0", Cluster: "zk"}
	place := simnet.Placement{Region: "r0", Cluster: "c0"}
	ens := zeus.StartEnsemble(w.net, 3, []simnet.Placement{zk})
	ens.SetObs(w.reg)
	w.net.RunFor(12 * time.Second)
	ens.AddObserver("obs-0", place)
	w.writer = zeus.NewClient("writer", ens.Members)
	w.net.AddNode("writer", zk, w.writer)

	sizes := fig8Sizes(sz.paths)
	fillers := make([][]byte, sz.paths)
	for i, size := range sizes {
		path := fmt.Sprintf("/serve/config%03d.json", i)
		w.paths = append(w.paths, path)
		fillers[i] = make([]byte, max(size-40, 8))
		for j := range fillers[i] {
			fillers[i][j] = byte('a' + rng.Intn(26))
		}
		zeusWrite(w.net, w.writer, path, serveBody(path, 0, fillers[i]))
	}
	for i := 0; i < sz.projects; i++ {
		path := fmt.Sprintf("/gk/Proj%d.json", i)
		w.projPath = append(w.projPath, path)
		w.projects = append(w.projects, fmt.Sprintf("Proj%d", i))
		zeusWrite(w.net, w.writer, path, gkSpec(i, 0).Encode())
	}
	// The schedule: the day's n commits go to a fixed spread of the
	// subscribed paths, the k-th of them to index 97·k mod (paths+projects),
	// taken in seeded order. Every seed thus updates the same paths, and no
	// seed piles its updates on the largest configs. A config commit
	// rewrites the config's revision; a project commit is the next stage of
	// that project's rollout.
	times := serverCommitTimes(sz, o.seed)
	order := rng.Perm(len(times))
	stage := make([]int, sz.projects)
	for k, at := range times {
		c := serveCommit{at: at}
		if i := 97 * order[k] % (sz.paths + sz.projects); i < sz.paths {
			c.path, c.data = w.paths[i], serveBody(w.paths[i], k+1, fillers[i])
		} else {
			p := i - sz.paths
			stage[p]++
			c.path, c.data = w.projPath[p], gkSpec(p, stage[p]).Encode()
		}
		w.commits = append(w.commits, c)
	}
	for k, c := range w.commits {
		w.at[vcs.HashBytes(c.data)] = k
	}
	w.net.RunFor(2 * time.Second)

	w.px = proxy.New(w.net, "server", place, []simnet.NodeID{"obs-0"}, nil)
	w.px.Obs = w.reg
	w.cl = confclient.New(w.px)
	w.cl.SetObs(w.reg)
	for _, path := range append(append([]string(nil), w.paths...), w.projPath...) {
		w.px.Subscribe(path, func(e proxy.Entry) {
			if k, ok := w.at[e.Hash]; ok {
				w.applied++
				w.liveMS = append(w.liveMS, float64(w.net.Now().Sub(w.issued[k]).Nanoseconds())/1e6)
			}
		})
	}
	w.net.RunFor(5 * time.Second)
	w.rt = gatekeeper.NewRuntime(gatekeeper.NewRegistry(nil))
	w.loaded = make([]int64, sz.projects)
	w.specs = make([][]byte, sz.projects)
	if err := w.reloadProjects(); err != nil {
		return nil, err
	}
	w.keys = zipfKeys(rng, sz.paths, keyStream, 1.1)
	w.lastRev = make([]int64, sz.paths)
	for i := 0; i < 4096; i++ {
		w.users = append(w.users, gkUser(rng, int64(i)))
		w.picks = append(w.picks, rng.Intn(sz.projects))
	}
	for _, path := range w.paths {
		if _, err := w.cl.Get(context.Background(), path); err != nil {
			return nil, fmt.Errorf("set-up read: %w", err)
		}
	}
	return w, nil
}

// reloadProjects loads every project whose config version changed since
// the runtime last loaded it. Request goroutine only.
func (w *serveWorld) reloadProjects() error {
	for i, path := range w.projPath {
		v, err := w.cl.Get(context.Background(), path)
		if err != nil {
			return fmt.Errorf("read project config: %w", err)
		}
		if v.Version == w.loaded[i] {
			continue
		}
		if err := w.rt.Load(v.Raw); err != nil {
			return fmt.Errorf("load project %s: %w", path, err)
		}
		if w.loaded[i] != 0 {
			w.reloads++
		}
		w.loaded[i], w.specs[i] = v.Version, v.Raw
	}
	return nil
}

// drive runs the sim day, stepping step of sim time every stepWall of wall
// time, and sets done once the day and a drain have run.
func (w *serveWorld) drive(done *atomic.Bool) {
	start := w.net.Now()
	wallStart := time.Now()
	next := 0
	end := w.sz.day + 10*time.Second
	stepWall := w.sz.stepWall()
	for step := 0; time.Duration(step)*w.sz.step < end; step++ {
		if d := time.Until(wallStart.Add(time.Duration(step) * stepWall)); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		id := w.simTr.begin("simnet.RunFor", -1, int64(step))
		horizon := time.Duration(step+1) * w.sz.step
		for next < len(w.commits) && w.commits[next].at < horizon {
			c := w.commits[next]
			w.net.RunUntil(start.Add(c.at))
			w.issued = append(w.issued, w.net.Now())
			wr := w.simTr.begin("zeus.Client.Write", id, int64(next))
			ctx := simnet.MakeContext(w.net, "writer")
			w.writer.Write(&ctx, c.path, c.data, nil)
			w.simTr.end(wr)
			next++
		}
		w.net.RunUntil(start.Add(horizon))
		w.simTr.end(id)
		w.driveNS += int64(time.Since(t0))
	}
	done.Store(true)
}

// checkApplied verifies that every commit of the day reached the server.
func (w *serveWorld) checkApplied() []string {
	if w.applied != len(w.commits) {
		return []string{fmt.Sprintf("%d of %d commits reached the server", w.applied, len(w.commits))}
	}
	return nil
}

// checkGet verifies one read of config k: the payload names the path read,
// and its revision is not older than one read before.
func (w *serveWorld) checkGet(k int, v *confclient.Value) {
	rev := v.Int("rev", -1)
	if path := v.String("path", ""); path != w.paths[k] || rev < w.lastRev[k] {
		w.bad = append(w.bad, fmt.Sprintf("get %s: payload of %q rev %d after rev %d", w.paths[k], path, rev, w.lastRev[k]))
		return
	}
	w.lastRev[k] = rev
}

// verifyChecks re-runs the sampled checks on a fresh gatekeeper.Compile of
// the project config each was served from.
func (w *serveWorld) verifyChecks() []string {
	var problems []string
	reg := gatekeeper.NewRegistry(nil)
	for _, s := range w.samples {
		spec, err := gatekeeper.ParseProjectSpec(s.spec)
		if err != nil {
			problems = append(problems, fmt.Sprintf("re-verify check: %v", err))
			continue
		}
		p, err := gatekeeper.Compile(spec, reg)
		if err != nil {
			problems = append(problems, fmt.Sprintf("re-verify check: %v", err))
			continue
		}
		if p.Check(w.users[s.user]) != s.got {
			problems = append(problems, fmt.Sprintf("Proj%d user %d: check disagrees with a fresh compile", s.project, s.user))
		}
	}
	return problems
}

// serve runs request batches until done, timing each batch.
func (w *serveWorld) serve(done *atomic.Bool, ep *episode) error {
	ctx := context.Background()
	var kpos, cpos int
	batch := 0
	for !done.Load() {
		if batch%8 == 0 {
			if err := w.reloadProjects(); err != nil {
				return err
			}
		}
		traced := w.reqTr != nil && batch%traceEvery == 0
		root := -1
		if traced {
			root = w.reqTr.begin("serve.batch", -1, int64(batch))
		}
		t0 := time.Now()
		for r := 0; r < w.sz.batch; r++ {
			for g := 0; g < getsPerRequest; g++ {
				k := w.keys[kpos&(keyStream-1)]
				kpos++
				id := -1
				if traced {
					id = w.reqTr.begin("confclient.Get", root, int64(batch))
				}
				v, err := w.cl.Get(ctx, w.paths[k])
				w.reqTr.end(id)
				if err != nil {
					w.bad = append(w.bad, fmt.Sprintf("get %s: %v", w.paths[k], err))
					continue
				}
				w.checkGet(k, v)
			}
			for c := 0; c < checksPerRequest; c++ {
				u := cpos & (len(w.users) - 1)
				p := w.picks[u]
				cpos++
				id := -1
				if traced {
					id = w.reqTr.begin("gatekeeper.Runtime.Check", root, int64(batch))
				}
				got := w.rt.Check(w.projects[p], w.users[u])
				w.reqTr.end(id)
				if cpos%checkSampleEvery == 0 {
					w.samples = append(w.samples, checkSample{p, w.specs[p], u, got})
				}
			}
		}
		dt := time.Since(t0)
		if traced {
			w.reqTr.end(root)
		}
		ep.opUS = append(ep.opUS, float64(dt.Nanoseconds())/1e3/float64(w.sz.batch))
		ep.ops += int64(w.sz.batch)
		batch++
	}
	return nil
}

func (w *serveWorld) run() (*episode, error) {
	ep := &episode{fingerprint: make(map[string]float64), layers: make(map[string]float64)}
	ev0, bytes0 := w.net.Events, w.net.BytesSent
	hits0, memo0 := w.cl.Hits(), w.cl.MemoHits()
	decodes0 := w.reg.Counters().Get("confclient.parse.decode")
	var done atomic.Bool
	var wg sync.WaitGroup
	var serveErr error
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = w.serve(&done, ep)
	}()
	w.drive(&done)
	wg.Wait()
	ep.wall = time.Since(start)
	if serveErr != nil {
		return nil, serveErr
	}
	ep.heapMB = heapMB()
	ep.liveMS = w.liveMS
	ep.attempted = ep.ops
	ep.problems = append(ep.problems, w.bad...)
	ep.failed = int64(len(w.bad))
	ep.problems = append(ep.problems, w.checkApplied()...)
	ep.problems = append(ep.problems, w.verifyChecks()...)

	fp := ep.fingerprint
	fp["live_sim_p50_ms"] = quantile(w.liveMS, 0.5)
	fp["live_sim_p95_ms"] = quantile(w.liveMS, 0.95)
	fp["live_sim_sum_ms"] = sum(w.liveMS)
	fp["proxy.versions_applied"] = float64(w.applied)
	fp["simnet.events"] = float64(w.net.Events - ev0)
	fp["simnet.bytes"] = float64(w.net.BytesSent - bytes0)

	if w.reqTr != nil {
		lay := ep.layers
		lay["proxy.versions_applied"] = float64(w.applied)
		lay["simnet.drive_ms_per_s"] = ms(time.Duration(w.driveNS)) / ep.wall.Seconds()
		lay["confclient.memo_hit_ratio"] = ratio(float64(w.cl.MemoHits()-memo0), float64(w.cl.Hits()-hits0))
		lay["confclient.decodes_per_version"] = ratio(float64(w.reg.Counters().Get("confclient.parse.decode")-decodes0), float64(w.applied))
		lay["serve.req_p99_us"] = quantile(ep.opUS, 0.99)
		w.timeCalls(lay)
		payloads := make([][]byte, len(w.commits))
		for k, c := range w.commits {
			payloads[k] = c.data
		}
		lay["vcs.hash_ns_per_kb"] = hashNSPerKB(payloads)
		ep.tracers = map[string]*tracer{"requests": w.reqTr, "sim": w.simTr}
	}
	return ep, nil
}

// timeCalls times the read-path layers directly on the workload's keys,
// users and projects: proxy.Proxy.Read, confclient.Client.Get and
// gatekeeper.Runtime.Check, with the allocations each makes.
func (w *serveWorld) timeCalls(lay map[string]float64) {
	n := w.sz.timedCalls
	ctx := context.Background()
	var sink int
	perCall := func(f func(i int)) (ns, allocs float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&m1)
		return float64(took.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	lay["proxy.read_ns"], _ = perCall(func(i int) {
		sink += len(w.px.Read(w.paths[w.keys[i&(keyStream-1)]]).Data)
	})
	lay["confclient.get_ns"], lay["confclient.allocs_per_get"] = perCall(func(i int) {
		if v, err := w.cl.Get(ctx, w.paths[w.keys[i&(keyStream-1)]]); err == nil {
			sink += int(v.Version)
		}
	})
	names := w.projects
	var evals0 uint64
	for _, name := range names {
		evals0 += w.rt.Project(name).RestraintEvals()
	}
	lay["gatekeeper.check_ns"], lay["gatekeeper.allocs_per_check"] = perCall(func(i int) {
		u := i & (len(w.users) - 1)
		if w.rt.Check(names[w.picks[u]], w.users[u]) {
			sink++
		}
	})
	var evals uint64
	for _, name := range names {
		evals += w.rt.Project(name).RestraintEvals()
	}
	lay["gatekeeper.restraint_evals_per_check"] = float64(evals-evals0) / float64(n)
	hashSink ^= uint64(sink)
}
