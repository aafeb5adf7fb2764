package dataflow

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"configerator/internal/cdl"
)

// diamondRepo: base feeds left and right, which both feed top — the
// classic diamond — plus a bystander chain that shares nothing with it.
func diamondRepo() cdl.MapFS {
	return cdl.MapFS{
		"lib/base.cinc":  "let BASE = 1;\n",
		"lib/left.cinc":  "import \"lib/base.cinc\";\nlet LEFT = BASE + 1;\n",
		"lib/right.cinc": "import \"lib/base.cinc\";\nlet RIGHT = BASE + 2;\n",
		"svc/top.cconf": "import \"lib/left.cinc\";\nimport \"lib/right.cinc\";\n" +
			"export {l: LEFT, r: RIGHT};\n",
		"lib/other.cinc":      "let OTHER = 9;\n",
		"svc/bystander.cconf": "import \"lib/other.cinc\";\nexport {o: OTHER};\n",
	}
}

var diamondRoots = []string{"svc/top.cconf", "svc/bystander.cconf"}

// TestIncrementalInvalidation: editing one .cinc recomputes exactly its
// provenance cone — the file plus its transitive importers — while
// everything else memo-hits. The diamond shape also proves the shared
// base is recomputed once, not once per import path.
func TestIncrementalInvalidation(t *testing.T) {
	fs := diamondRepo()
	ix := NewIndex(cdl.NewEngine())

	ix.Analyze(fs, diamondRoots)
	cold := ix.Counters().Snapshot()
	if cold[counterRecompute] != 6 || cold[counterMemo] != 0 {
		t.Fatalf("cold: recompute=%d memo=%d, want 6/0", cold[counterRecompute], cold[counterMemo])
	}

	// Warm, unchanged: both roots memo-hit at the top; collectReach
	// memo-hits the rest of each closure without rebuilding anything.
	ix.Analyze(fs, diamondRoots)
	warm := ix.Counters().Snapshot()
	if d := warm[counterRecompute] - cold[counterRecompute]; d != 0 {
		t.Errorf("warm recompute delta = %d, want 0", d)
	}
	if d := warm[counterMemo] - cold[counterMemo]; d != 6 {
		t.Errorf("warm memo delta = %d, want 6 (full closure reuse)", d)
	}

	// Edit the diamond's base: the cone {base, left, right, top}
	// recomputes; the bystander chain (2 files) memo-hits.
	edited := diamondRepo()
	edited["lib/base.cinc"] = "let BASE = 2;\n"
	rep := ix.Analyze(edited, diamondRoots)
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - warm[counterRecompute]; d != 4 {
		t.Errorf("edit recompute delta = %d, want 4 (the provenance cone)", d)
	}
	if d := after[counterMemo] - warm[counterMemo]; d != 2 {
		t.Errorf("edit memo delta = %d, want 2 (the bystander chain)", d)
	}

	// The recomputed summaries answer for the edited tree.
	origins, err := rep.Why("svc/top.cconf", "l")
	if err != nil {
		t.Fatal(err)
	}
	if !hasOrigin(origins, OriginModule, "lib/base.cinc") {
		t.Errorf("l should trace to lib/base.cinc, got %v", originNames(origins))
	}
}

// TestMemoSharedAcrossOverlayViews: two different FileSystem views that
// agree on a closure share its summaries — the property the pipeline
// leans on, where every change analyzes through its own overlay.
func TestMemoSharedAcrossOverlayViews(t *testing.T) {
	ix := NewIndex(cdl.NewEngine())
	ix.Analyze(diamondRepo(), diamondRoots)
	base := ix.Counters().Snapshot()

	// A second view adds a new artifact but leaves the diamond untouched.
	view2 := diamondRepo()
	view2["svc/extra.cconf"] = "import \"lib/other.cinc\";\nexport {o2: OTHER};\n"
	ix.Analyze(view2, append([]string{"svc/extra.cconf"}, diamondRoots...))
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - base[counterRecompute]; d != 1 {
		t.Errorf("recompute delta = %d, want 1 (just the new artifact)", d)
	}
}

// TestConcurrentQueries: Analyze and the three query passes are safe to
// run concurrently (the -race gate for the package).
func TestConcurrentQueries(t *testing.T) {
	fs := svRepo()
	ix := NewIndex(cdl.NewEngine())
	roots := []string{"svc/api.cconf", "svc/web.cconf", "svc/other.cconf"}
	rep := ix.Analyze(fs, roots)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch i % 4 {
				case 0:
					if _, err := rep.Why("svc/api.cconf", "limit"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					rep.Radius([]string{"sitevars/ratelimit.cinc"})
				case 2:
					rep.Determinacy()
				case 3:
					edited := svRepo()
					edited["sitevars/ratelimit.cinc"] = fmt.Sprintf("let RATELIMIT = %d;\n", 100+i*20+j)
					ix.Analyze(edited, roots)
				}
			}
		}(i)
	}
	wg.Wait()
}

// scanMisses reads the engine's import-scan counter: how many files the
// shared keyer has actually lexed.
func scanMisses(eng *cdl.Engine) int64 { return eng.Counters().Get("scan.miss") }

// TestWarmAnalyzeScansNothing: closure keys come from the engine's
// content-addressed import memo, so a warm Analyze of an unchanged view
// lexes zero files, and an edit re-lexes exactly the edited file.
func TestWarmAnalyzeScansNothing(t *testing.T) {
	eng := cdl.NewEngine()
	ix := NewIndex(eng)
	ix.Analyze(diamondRepo(), diamondRoots)
	if n := scanMisses(eng); n != 6 {
		t.Fatalf("cold analyze scanned %d files, want 6", n)
	}

	before := scanMisses(eng)
	ix.Analyze(diamondRepo(), diamondRoots) // a fresh but identical view
	if d := scanMisses(eng) - before; d != 0 {
		t.Errorf("warm analyze of an unchanged view scanned %d files, want 0", d)
	}

	edited := diamondRepo()
	edited["lib/right.cinc"] = "import \"lib/base.cinc\";\nlet RIGHT = BASE + 3;\n"
	before = scanMisses(eng)
	ix.Analyze(edited, diamondRoots)
	if d := scanMisses(eng) - before; d != 1 {
		t.Errorf("one-file edit scanned %d files, want exactly 1", d)
	}
}

// TestImportEditRekeysCone: changing a file's import list changes its
// closure key and every importer's, leaves the rest untouched, and the
// recompute cone is exactly TestIncrementalInvalidation's.
func TestImportEditRekeysCone(t *testing.T) {
	eng := cdl.NewEngine()
	ix := NewIndex(eng)
	fs := diamondRepo()
	ix.Analyze(fs, diamondRoots)
	warm := ix.Counters().Snapshot()

	// base now also imports lib/other.cinc (already summarized, so the
	// cone gains no new file).
	edited := diamondRepo()
	edited["lib/base.cinc"] = "import \"lib/other.cinc\";\nlet BASE = 1;\n"

	oldKeys, newKeys := eng.NewKeyer(fs), eng.NewKeyer(edited)
	for path := range fs {
		k0, err0 := oldKeys.Key(path)
		k1, err1 := newKeys.Key(path)
		if err0 != nil || err1 != nil {
			t.Fatalf("%s: unkeyable: %v / %v", path, err0, err1)
		}
		inCone := path == "lib/base.cinc" || path == "lib/left.cinc" ||
			path == "lib/right.cinc" || path == "svc/top.cconf"
		if changed := k0 != k1; changed != inCone {
			t.Errorf("%s: key changed = %v, want %v", path, changed, inCone)
		}
	}

	rep := ix.Analyze(edited, diamondRoots)
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - warm[counterRecompute]; d != 4 {
		t.Errorf("import edit recompute delta = %d, want 4 (the provenance cone)", d)
	}
	if d := after[counterMemo] - warm[counterMemo]; d != 2 {
		t.Errorf("import edit memo delta = %d, want 2 (the bystander chain)", d)
	}
	// The new edge is live: lib/other.cinc now reaches svc/top.cconf.
	rad := rep.Radius([]string{"lib/other.cinc"})
	if strings.Join(rad.Artifacts, ",") != "svc/bystander.cconf,svc/top.cconf" {
		t.Errorf("radius of lib/other.cinc = %v, want bystander and top", rad.Artifacts)
	}
}

// TestLexErrorStaysUncacheable: a module that fails to lex makes its whole
// importer chain unkeyable, so every Analyze rebuilds it (never a memo hit)
// and reports the error, while the shared scan memo lexes it only once.
func TestLexErrorStaysUncacheable(t *testing.T) {
	fs := cdl.MapFS{
		"lib/bad.cinc":  "let X = \"unterminated;\n",
		"svc/bad.cconf": "import \"lib/bad.cinc\";\nexport {x: X};\n",
	}
	eng := cdl.NewEngine()
	ix := NewIndex(eng)
	roots := []string{"svc/bad.cconf"}
	for i := 0; i < 2; i++ {
		before := ix.Counters().Snapshot()
		rep := ix.Analyze(fs, roots)
		after := ix.Counters().Snapshot()
		if len(rep.Errors) == 0 {
			t.Fatalf("round %d: lexical error not reported", i)
		}
		if d := after[counterMemo] - before[counterMemo]; d != 0 {
			t.Errorf("round %d: memo delta = %d, want 0 (uncacheable)", i, d)
		}
		if d := after[counterRecompute] - before[counterRecompute]; d != 2 {
			t.Errorf("round %d: recompute delta = %d, want 2", i, d)
		}
	}
	if n := scanMisses(eng); n != 2 {
		t.Errorf("scanned %d files over two rounds, want 2 (each file once)", n)
	}
}

// TestMemoOverflowKeepsRecentCone: overflowing MaxSummaries evicts the
// least-recently-used quarter, not the whole memo, so the cone analyzed
// last still memo-hits in full.
func TestMemoOverflowKeepsRecentCone(t *testing.T) {
	ix := NewIndex(cdl.NewEngine())
	ix.MaxSummaries = 8
	ix.Analyze(diamondRepo(), diamondRoots) // 6 summaries

	chain := cdl.MapFS{
		"c/a.cinc":        "let A = 1;\n",
		"c/b.cinc":        "import \"c/a.cinc\";\nlet B = A + 1;\n",
		"c/c.cinc":        "import \"c/b.cinc\";\nlet C = B + 1;\n",
		"svc/chain.cconf": "import \"c/c.cinc\";\nexport {c: C};\n",
	}
	chainRoots := []string{"svc/chain.cconf"}
	ix.Analyze(chain, chainRoots) // 4 more: overflows the cap of 8
	if n := len(ix.memo); n == 0 || n > ix.MaxSummaries {
		t.Fatalf("memo holds %d summaries, want 1..%d", n, ix.MaxSummaries)
	}

	before := ix.Counters().Snapshot()
	ix.Analyze(chain, chainRoots)
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - before[counterRecompute]; d != 0 {
		t.Errorf("recent cone recomputed %d summaries after overflow, want 0", d)
	}
	if d := after[counterMemo] - before[counterMemo]; d != 4 {
		t.Errorf("recent cone memo delta = %d, want 4", d)
	}
}

// TestCompileAndAnalyzeShareEngine: CompileAll and Analyze run
// concurrently on one engine — one keyer implementation, one scan memo,
// one parse cache — over two views that differ in one file, and each
// answers for its own view (the -race gate for the shared memo).
func TestCompileAndAnalyzeShareEngine(t *testing.T) {
	eng := cdl.NewEngine()
	ix := NewIndex(eng)
	v1 := diamondRepo()
	v2 := diamondRepo()
	v2["lib/base.cinc"] = "let BASE = 10;\n"
	want := map[string]string{
		"v1": `{"l":2,"r":3}`,
		"v2": `{"l":11,"r":12}`,
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for name, fs := range map[string]cdl.MapFS{"v1": v1, "v2": v2} {
			wg.Add(2)
			go func(name string, fs cdl.MapFS) {
				defer wg.Done()
				results, err := eng.CompileAll(fs, diamondRoots)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range results {
					if r.Path == "svc/top.cconf" && string(r.JSON) != want[name] {
						t.Errorf("%s: top = %s, want %s", name, r.JSON, want[name])
					}
				}
			}(name, fs)
			go func(fs cdl.MapFS) {
				defer wg.Done()
				rep := ix.Analyze(fs, diamondRoots)
				if len(rep.Errors) > 0 {
					t.Error(rep.Errors)
				}
				if rad := rep.Radius([]string{"lib/base.cinc"}); len(rad.Artifacts) != 1 {
					t.Errorf("radius of lib/base.cinc = %v, want [svc/top.cconf]", rad.Artifacts)
				}
			}(fs)
		}
	}
	wg.Wait()

	// The shared keyer separates the views exactly where they differ.
	k1, k2 := eng.NewKeyer(v1), eng.NewKeyer(v2)
	for _, path := range []string{"svc/top.cconf", "svc/bystander.cconf"} {
		a, _ := k1.Key(path)
		b, _ := k2.Key(path)
		if differ := a != b; differ != (path == "svc/top.cconf") {
			t.Errorf("%s: keys differ across views = %v", path, differ)
		}
	}
	// Once the views stop alternating, the scan memo settles: a repeat
	// Analyze lexes nothing.
	ix.Analyze(v1, diamondRoots)
	before := scanMisses(eng)
	ix.Analyze(v1, diamondRoots)
	if d := scanMisses(eng) - before; d != 0 {
		t.Errorf("repeat analyze scanned %d files, want 0", d)
	}
}
