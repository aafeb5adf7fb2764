package main

import (
	"fmt"
	"sync"
	"time"

	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/vcs"
	"configerator/internal/workload"
	"configerator/internal/zeus"
)

// fleet_push: a writer commits one edit per sim-second, open loop in sim
// time, to configs that thousands of proxies subscribe to. About one commit
// in ten is a full rewrite and the rest are small edits, so both the delta
// and the full-snapshot path run. This is the distribution plane: simnet,
// Zeus, proxy apply, hashing. It bypasses cdl, dataflow, the landing strip
// and the read path.

type pushSizes struct {
	clusters, observersPerCluster, proxies int
	configs, subsPerProxy                  int
	passes                                 int // commits per round: passes × configs
}

func pushSizesFor(tiny bool) pushSizes {
	if tiny {
		return pushSizes{clusters: 2, observersPerCluster: 2, proxies: 40, configs: 4, subsPerProxy: 2, passes: 3}
	}
	return pushSizes{clusters: 8, observersPerCluster: 2, proxies: 2000, configs: 16, subsPerProxy: 4, passes: 4}
}

func (s pushSizes) table() map[string]int {
	return map[string]int{"clusters": s.clusters, "observers_per_cluster": s.observersPerCluster,
		"proxies": s.proxies, "configs": s.configs, "subs_per_proxy": s.subsPerProxy,
		"commits_per_round": s.passes * s.configs}
}

// referenceHistory is the fixed workload.Generate history every workload
// takes its config sizes from; serve_reads also takes the repository's
// config count from it. It is made once per process, before any round.
var referenceHistory = sync.OnceValue(func() *workload.History {
	return workload.Generate(workload.DefaultParams(1))
})

// fig8Sizes returns n config sizes from the reference history's Figure 8
// compiled-size distribution, in ascending order: the midpoint of each of
// n equal quantile strata. Every seed thus runs the same size mix, and no
// seed draws a far-tail size that would swamp its runs; the seed decides
// which path holds which size and everything else.
func fig8Sizes(n int) []int {
	_, compiled := referenceHistory().Fig8SizeCDFs()
	out := make([]int, n)
	for i := range out {
		out[i] = int(compiled.Quantile((float64(i) + 0.5) / float64(n)))
	}
	return out
}

// pushHeader starts a config's content: the path and revision, in one of
// two layouts that share only the opening brace.
func pushHeader(path string, rev, layout int) []byte {
	return []byte(fmt.Sprintf(`{%s"path":%q,"rev":%8d,"pad":"`, []string{"", " "}[layout], path, rev))
}

// pushBody is a config's content: a header, seeded filler, and a closing
// that, like the header, differs between the layouts.
func pushBody(rng *stats.RNG, path string, rev, size, layout int) []byte {
	b := pushHeader(path, rev, layout)
	for len(b) < size-3 {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return append(b, []string{`"}`, `" }`}[layout]...)
}

func layoutOf(data []byte) int {
	if data[1] == ' ' {
		return 1
	}
	return 0
}

// pushEdit rewrites the revision and a few filler bytes at a seeded spot,
// leaving the rest shared with the previous version.
func pushEdit(rng *stats.RNG, prev []byte, path string, rev int) []byte {
	b := append([]byte(nil), prev...)
	head := pushHeader(path, rev, layoutOf(prev))
	copy(b, head)
	if span := len(b) - len(head) - 16; span > 0 {
		at := len(head) + 8 + rng.Intn(span)
		for i := 0; i < 4; i++ {
			b[at+i] = byte('a' + rng.Intn(26))
		}
	}
	return b
}

// pushRewrite replaces the whole content, switching layout so the new
// version shares too little with the old for a delta to pay.
func pushRewrite(rng *stats.RNG, prev []byte, path string, rev int) []byte {
	return pushBody(rng, path, rev, len(prev), 1-layoutOf(prev))
}

type pushCommit struct {
	path string
	data []byte
	hash uint64
}

type pushWorld struct {
	net     *simnet.Network
	reg     *obs.Registry
	writer  *zeus.Client
	proxies []*proxy.Proxy
	mine    [][]string // per proxy: the paths it subscribes to
	paths   []string
	subs    map[string]int    // path → subscriber count
	commits []pushCommit      // the seeded commit stream
	at      map[uint64]int    // commit hash → commit index
	issued  []time.Time       // sim instant each commit was written
	initial map[string][]byte // path → its content before the episode
	final   map[string]uint64 // path → hash of its last committed bytes

	delivered []int     // per commit: subscribers that got it
	liveMS    []float64 // commit → subscriber callback, modeled
	heapKB    float64   // per proxy, traced runs only
	tr        *tracer
}

func setupFleetPush(o options, traced bool) (world, error) {
	sz := pushSizesFor(o.tiny)
	w := &pushWorld{subs: make(map[string]int), at: make(map[uint64]int),
		initial: make(map[string][]byte), final: make(map[string]uint64), delivered: make([]int, sz.passes*sz.configs)}
	if traced {
		w.reg = obs.New()
		w.tr = newTracer()
	}
	rng := stats.NewRNG(o.seed)
	w.net = simnet.New(simnet.DefaultLatency(), o.seed)
	w.net.SetObs(w.reg)
	zk := simnet.Placement{Region: "r0", Cluster: "zk"}
	ens := zeus.StartEnsemble(w.net, 3, []simnet.Placement{zk})
	ens.SetObs(w.reg)
	w.net.RunFor(12 * time.Second) // elect the leader
	places := make([]simnet.Placement, sz.clusters)
	observers := make([][]simnet.NodeID, sz.clusters)
	for c := range places {
		// A quarter of the clusters sit in a remote region, so the median
		// delivery is a local one and the tail a cross-region one, rather
		// than the median falling between the two.
		region := "r0"
		if 4*c >= 3*sz.clusters {
			region = "r1"
		}
		places[c] = simnet.Placement{Region: region, Cluster: fmt.Sprintf("c%d", c)}
		for k := 0; k < sz.observersPerCluster; k++ {
			id := simnet.NodeID(fmt.Sprintf("obs-%d-%d", c, k))
			ens.AddObserver(id, places[c])
			observers[c] = append(observers[c], id)
		}
	}
	w.writer = zeus.NewClient("writer", ens.Members)
	w.net.AddNode("writer", zk, w.writer)

	// Initial versions, then the commit stream: passes over the configs,
	// each in a seeded order, so every config takes the same number of
	// commits. The commit of config r (its size rank) in pass j is a full
	// rewrite when (r+4j)%10 == 9: about one commit in ten, and the same
	// sizes in every seed.
	sizes := fig8Sizes(sz.configs)
	data := make(map[string][]byte, sz.configs)
	for i, size := range sizes {
		path := fmt.Sprintf("/push/config%02d.json", i)
		w.paths = append(w.paths, path)
		data[path] = pushBody(rng, path, 0, size, 0)
		w.initial[path] = data[path]
		zeusWrite(w.net, w.writer, path, data[path])
	}
	for j := 0; j < sz.passes; j++ {
		for _, r := range rng.Perm(sz.configs) {
			path, rev := w.paths[r], len(w.commits)+1
			full := (r+4*j)%10 == 9
			if full {
				data[path] = pushRewrite(rng, data[path], path, rev)
			} else {
				data[path] = pushEdit(rng, data[path], path, rev)
			}
			c := pushCommit{path: path, data: data[path], hash: vcs.HashBytes(data[path])}
			w.at[c.hash] = len(w.commits)
			w.final[path] = c.hash
			w.commits = append(w.commits, c)
		}
	}
	w.net.RunFor(5 * time.Second)

	// Proxies: each group of configs/subsPerProxy consecutive proxies splits
	// one seeded permutation of the configs, so every config has the same
	// number of subscribers.
	var heap0 float64
	if traced {
		heap0 = heapMB()
	}
	groups := sz.configs / sz.subsPerProxy
	var perm []int
	for i := 0; i < sz.proxies; i++ {
		c := i % sz.clusters
		px := proxy.New(w.net, simnet.NodeID(fmt.Sprintf("px-%d-%05d", c, i)), places[c], observers[c], nil)
		px.Obs = w.reg
		if i%groups == 0 {
			perm = rng.Perm(sz.configs)
		}
		g := i % groups
		var mine []string
		for _, ci := range perm[g*sz.subsPerProxy : (g+1)*sz.subsPerProxy] {
			path := w.paths[ci]
			mine = append(mine, path)
			w.subs[path]++
			last := -1
			px.Subscribe(path, func(e proxy.Entry) {
				k, ok := w.at[e.Hash]
				if !ok || k <= last {
					return
				}
				last = k
				w.delivered[k]++
				w.liveMS = append(w.liveMS, float64(w.net.Now().Sub(w.issued[k]).Nanoseconds())/1e6)
			})
		}
		w.proxies = append(w.proxies, px)
		w.mine = append(w.mine, mine)
	}
	w.net.RunFor(10 * time.Second) // every proxy fetches the initial versions
	for i, px := range w.proxies {
		for _, path := range w.mine[i] {
			if r := px.Read(path); !r.OK || r.Hash != vcs.HashBytes(w.initial[path]) {
				return nil, fmt.Errorf("%s never got the initial %s", px.ID(), path)
			}
		}
	}
	if traced {
		w.heapKB = (heapMB() - heap0) * 1024 / float64(sz.proxies)
	}
	return w, nil
}

// checkFinal verifies that every subscriber serves its configs' last
// committed bytes.
func (w *pushWorld) checkFinal() []string {
	var problems []string
	for i, px := range w.proxies {
		for _, path := range w.mine[i] {
			if r := px.Read(path); !r.OK || r.Hash != w.final[path] {
				problems = append(problems, fmt.Sprintf("%s serves a stale %s", px.ID(), path))
			}
		}
	}
	return problems
}

// tally counts the (subscriber, version) pairs the commits owed and those
// delivered; the difference are failed operations.
func (w *pushWorld) tally() (owed, delivered int64) {
	for k, c := range w.commits {
		owed += int64(w.subs[c.path])
		delivered += int64(w.delivered[k])
	}
	return owed, delivered
}

// zeusWrite commits data to path through the "writer" node's Zeus client
// at the current sim instant.
func zeusWrite(net *simnet.Network, writer *zeus.Client, path string, data []byte) {
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "writer")
		writer.Write(&ctx, path, data, nil)
	})
}

func (w *pushWorld) run() (*episode, error) {
	ep := &episode{fingerprint: make(map[string]float64), layers: make(map[string]float64)}
	ev0, bytes0 := w.net.Events, w.net.BytesSent
	var fetch0 uint64
	for _, px := range w.proxies {
		fetch0 += px.Fetches
	}
	cnt0 := w.reg.Counters().Snapshot()

	start := time.Now()
	for k, c := range w.commits {
		t0 := time.Now()
		id := w.tr.begin("commit", -1, int64(k))
		w.issued = append(w.issued, w.net.Now())
		zeusWrite(w.net, w.writer, c.path, c.data)
		run := w.tr.begin("simnet.RunFor", id, int64(k))
		w.net.RunFor(time.Second)
		w.tr.end(run)
		w.tr.end(id)
		ep.opUS = append(ep.opUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	id := w.tr.begin("simnet.RunFor", -1, int64(len(w.commits)))
	w.net.RunFor(10 * time.Second) // drain the last waves
	w.tr.end(id)
	ep.wall = time.Since(start)
	ep.heapMB = heapMB()

	var updates int64
	ep.attempted, updates = w.tally()
	ep.ops = updates
	ep.failed = ep.attempted - updates
	ep.liveMS = w.liveMS
	ep.problems = append(ep.problems, w.checkFinal()...)
	var fetches uint64
	for _, px := range w.proxies {
		fetches += px.Fetches
	}
	events := float64(w.net.Events - ev0)
	fp := ep.fingerprint
	fp["live_sim_p50_ms"] = quantile(w.liveMS, 0.5)
	fp["live_sim_p95_ms"] = quantile(w.liveMS, 0.95)
	fp["live_sim_sum_ms"] = sum(w.liveMS)
	fp["updates"] = float64(updates)
	fp["simnet.events"] = events
	fp["simnet.bytes"] = float64(w.net.BytesSent - bytes0)
	fp["proxy.fetches"] = float64(fetches - fetch0)

	if w.tr != nil {
		cnt := delta(w.reg.Counters().Snapshot(), cnt0)
		u := float64(updates)
		lay := ep.layers
		lay["simnet.ns_per_event"] = ratio(float64(ep.wall.Nanoseconds()), events)
		lay["simnet.events_per_update"] = ratio(events, u)
		lay["simnet.bytes_per_update"] = ratio(fp["simnet.bytes"], u)
		lay["zeus.ops_per_wave"] = ratio(float64(cnt["zeus.propose.ops"]), float64(cnt["zeus.propose.waves"]))
		lay["zeus.push_delta_frac"] = ratio(float64(cnt["zeus.push.delta"]), float64(cnt["zeus.push.delta"]+cnt["zeus.push.full"]))
		lay["zeus.fetch_full"] = float64(cnt["zeus.fetch.full"])
		lay["proxy.versions_applied"] = u
		lay["proxy.fetch_per_update"] = ratio(fp["proxy.fetches"], u)
		lay["proxy.delta_fallback"] = float64(cnt["proxy.delta.fallback"])
		lay["proxy.heap_kb_per_proxy"] = w.heapKB
		payloads := make([][]byte, len(w.commits))
		for k, c := range w.commits {
			payloads[k] = c.data
		}
		lay["vcs.hash_ns_per_kb"] = hashNSPerKB(payloads)
		ep.tracers = map[string]*tracer{"sim": w.tr}
	}
	return ep, nil
}
