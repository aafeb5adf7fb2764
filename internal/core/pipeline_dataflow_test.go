package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/vcs"
)

// racyOverlays is the seeded non-deterministic fixture: two overlays
// assigning the same exported name different values, with no import order
// between them.
func racyOverlays() map[string][]byte {
	return map[string][]byte{
		"overlays/a.cinc": []byte("let timeout = 5;\n"),
		"overlays/b.cinc": []byte("let timeout = 30;\n"),
		"svc/app.cconf": []byte("import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n" +
			"export {timeout: timeout};\n"),
	}
}

// TestStripGateRejectsNondeterministicOverlay: the seeded fixture pushed
// straight at the landing strip is refused by Strip.Gate, with a diagnostic
// naming both conflicting sites — the ISSUE acceptance criterion.
func TestStripGateRejectsNondeterministicOverlay(t *testing.T) {
	p := standalone(t)
	strip := p.Strip("svc/app.cconf")
	wc := strip.Repo().Clone("mallory")
	for path, data := range racyOverlays() {
		wc.Write(path, data)
	}
	res := strip.Submit(wc.Diff("racy overlays"), p.Now())
	if res.Err == nil {
		t.Fatal("strip landed a non-deterministic overlay stack")
	}
	if !errors.Is(res.Err, ErrNondeterministic) {
		t.Fatalf("err = %v, want ErrNondeterministic", res.Err)
	}
	msg := res.Err.Error()
	if !strings.Contains(msg, "overlays/a.cinc:1") || !strings.Contains(msg, "overlays/b.cinc:1") {
		t.Fatalf("rejection must name both conflicting sites: %v", res.Err)
	}
	if strip.Repo().CommitCount() != 0 {
		t.Error("refused diff reached the repository")
	}

	// Giving the overlays an import order makes the same stack land.
	wc2 := strip.Repo().Clone("carol")
	wc2.Write("overlays/a.cinc", []byte("let timeout = 5;\n"))
	wc2.Write("overlays/b.cinc", []byte("import \"overlays/a.cinc\";\nlet timeout = 30;\n"))
	wc2.Write("svc/app.cconf", []byte("import \"overlays/b.cinc\";\nexport {timeout: timeout};\n"))
	if res := strip.Submit(wc2.Diff("ordered overlays"), p.Now()); res.Err != nil {
		t.Fatalf("ordered overlays refused: %v", res.Err)
	}
}

// TestPipelineRejectsNondeterministicAtLint: the same fixture through the
// pipeline fails in stage 1 with the determinacy diagnostics on the report.
func TestPipelineRejectsNondeterministicAtLint(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{
		Author: "mallory", Reviewer: "bob", Title: "racy overlays",
		Sources: racyOverlays(), SkipCanary: true,
	})
	if rep.OK() {
		t.Fatal("non-deterministic change landed")
	}
	if rep.FailedStage != "lint" {
		t.Fatalf("FailedStage = %q, want lint (err: %v)", rep.FailedStage, rep.Err)
	}
	if !errors.Is(rep.Err, ErrNondeterministic) {
		t.Fatalf("err = %v, want ErrNondeterministic", rep.Err)
	}
	found := false
	for _, d := range rep.Lint {
		if d.Analyzer == dataflow.DeterminacyAnalyzer {
			found = true
		}
	}
	if !found {
		t.Fatalf("report.Lint should carry the determinacy diagnostic, got %v", rep.Lint)
	}
}

// seedSharedLib lands a library with n importing artifacts through the
// pipeline, so a later edit to the library has an n-artifact blast radius.
func seedSharedLib(t *testing.T, p *Pipeline, n int) {
	t.Helper()
	sources := map[string][]byte{
		"lib/shared.cinc": []byte("let LIMIT = 10;\n"),
	}
	for i := 0; i < n; i++ {
		sources[fmt.Sprintf("svc/app%d.cconf", i)] =
			[]byte("import \"lib/shared.cinc\";\nexport {limit: LIMIT};\n")
	}
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "seed shared lib",
		Sources: sources, SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("seed failed at %s: %v", rep.FailedStage, rep.Err)
	}
}

// TestStripGateRejectsHighRadiusDirectSubmit: once a library's static reach
// crosses the threshold, a direct strip submit editing it is refused — the
// change must come through the pipeline, which canaries it (or, standalone,
// at least runs the full stage sequence).
func TestStripGateRejectsHighRadiusDirectSubmit(t *testing.T) {
	p := New(Options{HighRadiusArtifacts: 3})
	seedSharedLib(t, p, 3)

	strip := p.Strip("lib/shared.cinc")
	wc := strip.Repo().Clone("mallory")
	wc.Write("lib/shared.cinc", []byte("let LIMIT = 99;\n"))
	res := strip.Submit(wc.Diff("bump limit"), p.Now())
	if !errors.Is(res.Err, ErrHighRadius) {
		t.Fatalf("err = %v, want ErrHighRadius", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "3 artifacts") {
		t.Fatalf("rejection should count the radius: %v", res.Err)
	}

	// The same edit through the pipeline lands: its shards are cleared.
	rep := p.Submit(&ChangeRequest{
		Author: "mallory", Reviewer: "bob", Title: "bump limit properly",
		Sources:    map[string][]byte{"lib/shared.cinc": []byte("let LIMIT = 99;\n")},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("pipeline submit failed at %s: %v", rep.FailedStage, rep.Err)
	}

	// A low-radius direct submit is still fine.
	wc2 := strip.Repo().Clone("carol")
	wc2.Write("svc/app0.cconf", []byte("import \"lib/shared.cinc\";\nexport {limit: LIMIT, v: 2};\n"))
	if res := strip.Submit(wc2.Diff("tweak one app"), p.Now()); res.Err != nil {
		t.Fatalf("low-radius direct diff refused: %v", res.Err)
	}
}

// TestRadiusOnReportAndReview: a landed change carries its blast radius and
// combined risk score, the review diff gets the [dataflow] comment, and the
// advisor learns the changed path's static reach.
func TestRadiusOnReportAndReview(t *testing.T) {
	p := standalone(t)
	seedSharedLib(t, p, 3)

	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "bump limit",
		Sources:    map[string][]byte{"lib/shared.cinc": []byte("let LIMIT = 20;\n")},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	if rep.Radius == nil {
		t.Fatal("report has no Radius")
	}
	if got := strings.Join(rep.Radius.Artifacts, ","); got != "svc/app0.cconf,svc/app1.cconf,svc/app2.cconf" {
		t.Fatalf("radius artifacts = %q", got)
	}
	if rep.RiskScore < rep.Radius.Score || rep.Radius.Score <= 0 {
		t.Fatalf("RiskScore = %v, radius score = %v", rep.RiskScore, rep.Radius.Score)
	}
	diff, err := p.Review.Get(rep.DiffID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range diff.Comments {
		if strings.Contains(c, "[dataflow] blast radius: 3 artifacts") {
			found = true
		}
	}
	if !found {
		t.Fatalf("review diff missing the [dataflow] comment: %v", diff.Comments)
	}
	// Static reach reached the advisor (the 3 downstream artifacts; a
	// plain .cinc has no sitevar/gatekeeper consumer bindings).
	if got := p.Risk.Reach("lib/shared.cinc"); got != 3 {
		t.Fatalf("advisor reach = %d, want 3", got)
	}
}

// TestHighRadiusCannotSkipCanary: with a fleet attached, a high-radius
// change asking to skip canary is refused in stage 3.
// (Exercised without a fleet by checking the guard directly: p.Canary is
// nil standalone, so the stage-3 branch needs the fleet-backed pipeline in
// the integration tests; here we pin the gate exemption logic instead.)
func TestHighRadiusGateExemptionScopedToShard(t *testing.T) {
	p := New(Options{HighRadiusArtifacts: 3})
	seedSharedLib(t, p, 3)
	// After a pipeline submit, the cleared set must be empty again: the
	// exemption is scoped to the shard being landed, not left open.
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "touch lib",
		Sources:    map[string][]byte{"lib/shared.cinc": []byte("let LIMIT = 11;\n")},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	if len(p.cleared) != 0 {
		t.Fatalf("cleared set leaked %d entries", len(p.cleared))
	}
	// And a direct submit right after is still refused.
	strip := p.Strip("lib/shared.cinc")
	wc := strip.Repo().Clone("mallory")
	wc.Write("lib/shared.cinc", []byte("let LIMIT = 12;\n"))
	if res := strip.Submit(wc.Diff("backdoor"), p.Now()); !errors.Is(res.Err, ErrHighRadius) {
		t.Fatalf("err = %v, want ErrHighRadius", res.Err)
	}
}

// TestConfigRootsSortedAcrossRepos: the analysis roots are every .cconf at
// head in every repository plus overlay additions, minus deletions —
// sorted and deduplicated across repositories and the overlay.
func TestConfigRootsSortedAcrossRepos(t *testing.T) {
	repos := vcs.NewRepoSet("configerator")
	repos.AddRepo("feed")
	repos.AddRepo("tao")
	p := New(Options{Repos: repos})
	src := []byte("export {};\n")
	if _, err := repos.CommitChanges("alice", "seed", p.Now(),
		vcs.Change{Path: "tao/z.cconf", Content: src},
		vcs.Change{Path: "feed/b.cconf", Content: src},
		vcs.Change{Path: "feed/a.cconf", Content: src},
		vcs.Change{Path: "feed/lib.cinc", Content: src},
		vcs.Change{Path: "misc/m.cconf", Content: src},
	); err != nil {
		t.Fatal(err)
	}
	overlay := map[string][]byte{
		"feed/a.cconf":  src, // already at head: listed once
		"tao/new.cconf": src,
		"tao/lib.cinc":  src,
	}
	got := p.configRoots(overlay, map[string]bool{"misc/m.cconf": true})
	want := []string{"feed/a.cconf", "feed/b.cconf", "tao/new.cconf", "tao/z.cconf"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("configRoots = %v, want %v", got, want)
	}
}
