package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"configerator/internal/core"
	"configerator/internal/vcs"
)

func tinyOptions() options { return options{seed: 7, tiny: true} }

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Fatalf("BENCHMARK.json declares workload %q the benchmark does not have", n)
		}
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s emitted but not declared", what, name)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON runs every workload at tiny size,
// untraced and traced, and compares the emitted metrics with the declared
// ones. The traced run also passes the determinism gate.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		o := tinyOptions()
		rep, _, err := measure(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
		}
		sameMetrics(t, name, rep.Metrics, endToEnd)
		for m, v := range rep.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
			}
		}
		o.trace = true
		rep, _, err = measure(name, o)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		sameMetrics(t, name+" traced", rep.Metrics, perLayer)
	}
}

func setupTiny(t *testing.T, setup setupFunc) world {
	t.Helper()
	w, err := setup(tinyOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.problems) > 0 || ep.failed > 0 {
		t.Fatalf("clean run reported problems %v, failed %d", ep.problems, ep.failed)
	}
	return w
}

func TestAuthorChecksRejectWrongValues(t *testing.T) {
	w := setupTiny(t, setupAuthorEdits).(*authorWorld)
	art := core.ArtifactPath(w.roots[0])
	if _, err := w.p.Repos.CommitChanges("tamper", "wrong artifact", w.p.Now(),
		vcs.Change{Path: art, Content: []byte(`{"value":-1}`)}); err != nil {
		t.Fatal(err)
	}
	if len(w.check()) == 0 {
		t.Error("check accepted an artifact that differs from a fresh compile")
	}
	rep := &core.ChangeReport{Compiled: map[string][]byte{art: []byte(`{"never":"delivered"}`)}}
	if _, ok := w.delivered(rep); ok {
		t.Error("delivered accepted bytes no subscriber received")
	}
}

func TestServeChecksRejectWrongValues(t *testing.T) {
	w := setupTiny(t, setupServeReads).(*serveWorld)
	v, err := w.cl.Get(context.Background(), w.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	w.bad = nil
	w.checkGet(1, v) // config 0's payload read as config 1
	if len(w.bad) == 0 {
		t.Error("checkGet accepted a payload naming another path")
	}
	w.bad = nil
	w.lastRev[0] = v.Int("rev", 0) + 1
	w.checkGet(0, v)
	if len(w.bad) == 0 {
		t.Error("checkGet accepted a revision going backwards")
	}
	if len(w.samples) == 0 {
		t.Fatal("no checks were sampled")
	}
	w.samples[0].got = !w.samples[0].got
	if len(w.verifyChecks()) == 0 {
		t.Error("verifyChecks accepted a check result a fresh compile disagrees with")
	}
	if w.reloads == 0 {
		t.Error("no project update was reloaded during the episode")
	}
	w.applied--
	if len(w.checkApplied()) == 0 {
		t.Error("checkApplied accepted a commit that never reached the server")
	}
}

func TestFleetChecksRejectWrongValues(t *testing.T) {
	w := setupTiny(t, setupFleetPush).(*pushWorld)
	w.final[w.paths[0]]++
	if len(w.checkFinal()) == 0 {
		t.Error("checkFinal accepted a wrong last-committed hash")
	}
	if owed, got := w.tally(); owed != got {
		t.Fatalf("clean run tallied %d deliveries of %d owed", got, owed)
	}
	w.delivered[0]--
	if owed, got := w.tally(); owed == got {
		t.Error("tally counted an undelivered (subscriber, version) pair as delivered")
	}
}

func TestDeterminismGateRejectsDifferences(t *testing.T) {
	fp := func(m map[string]float64) round { return round{ep: &episode{fingerprint: m}} }
	ref := map[string]float64{"live_sim_p50_ms": 14.5, "simnet.events": 1000}
	if err := sameFingerprints([]round{fp(ref), fp(map[string]float64{"live_sim_p50_ms": 14.5, "simnet.events": 1000})}); err != nil {
		t.Fatalf("equal fingerprints rejected: %v", err)
	}
	for _, other := range []map[string]float64{
		{"live_sim_p50_ms": 14.5, "simnet.events": 1001},
		{"live_sim_p50_ms": 14.5},
		{"live_sim_p50_ms": 14.5, "simnet.events": 1000, "simnet.bytes": 1},
	} {
		if err := sameFingerprints([]round{fp(ref), fp(ref), fp(other)}); err == nil {
			t.Errorf("gate accepted %v after %v", other, ref)
		}
	}
}
