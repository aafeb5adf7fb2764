// Package dataflow is the whole-repo semantic analysis layer behind the
// configrisk gates: provenance (which origin sites can alter each artifact
// field), blast radius (which artifacts, consumer bindings, and canary
// domains a candidate diff can reach), and determinacy (no two unordered
// overlay paths may assign conflicting values to the same field).
//
// The paper's defense ladder (§4) leans on validators, review, and canary,
// but its §6.2/§8 incident data show the worst outages come from *valid*
// changes whose reach nobody computed — the 727-author sitevar, the
// dormant config suddenly edited. Rehearsal-style static verification
// closes that gap: every query here is answered without evaluating a
// single config, from per-module summaries memoized by content hash so a
// warm whole-repo pass is incremental exactly like cdl.Engine.
//
// The three passes share one substrate: an Index builds (or reuses) one
// summary per module, keyed by the Merkle hash of the module's import
// closure — the key cdl.Keyer computes for the engine's compile caches, so
// compile and analysis share one keyer and one import-scan memo. Editing
// one .cinc invalidates only its provenance cone — the
// file plus its transitive importers — which the
// dataflow.provenance.memo / dataflow.provenance.recompute counters make
// observable and testable.
package dataflow

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"configerator/internal/cdl"
	"configerator/internal/lru"
	"configerator/internal/obs"
	"configerator/internal/stats"
)

// OriginKind classifies where a config value can come from.
type OriginKind string

// Origin kinds. Sitevar, gatekeeper, and env origins are recognized
// syntactically — `sitevar("name")`-style calls and imports under the
// "sitevars/" / "gatekeeper/" conventions — matching the deprecated-sitevar
// analyzer; there are no such builtins in the evaluator.
const (
	// OriginModule: a source file whose declarations feed the value.
	OriginModule OriginKind = "module"
	// OriginSitevar: a sitevar("name") call or a sitevars/<name>.cinc import.
	OriginSitevar OriginKind = "sitevar"
	// OriginGatekeeper: a gatekeeper("project") call or gatekeeper/ import.
	OriginGatekeeper OriginKind = "gatekeeper"
	// OriginEnv: an env("NAME") call.
	OriginEnv OriginKind = "env"
)

// SiteRef is a JSON-friendly source position.
type SiteRef struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func siteRef(p cdl.Pos) SiteRef { return SiteRef{File: p.File, Line: p.Line, Col: p.Col} }

// String renders file:line:col.
func (s SiteRef) String() string { return fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col) }

// Origin is one site whose change can alter a value: a module file, or an
// external input (sitevar / gatekeeper gate / env var) referenced from one.
type Origin struct {
	Kind OriginKind `json:"kind"`
	// Name is the sitevar/gate/env name; for OriginModule it is the file path.
	Name string `json:"name"`
	// Site is a representative source position (the declaration or call).
	Site SiteRef `json:"site"`
}

// key dedups origins: one entry per (kind, name), first site kept.
func (o Origin) key() string { return string(o.Kind) + "\x00" + o.Name }

// String renders `module path (site)` or `sitevar "name" (site)`.
func (o Origin) String() string {
	if o.Kind == OriginModule {
		return fmt.Sprintf("module %s (%s)", o.Name, o.Site)
	}
	return fmt.Sprintf("%s %q (%s)", o.Kind, o.Name, o.Site)
}

// ConsumerSite is one static consumer binding: a sitevar/gatekeeper/env
// reference site in a module — the compile-time analogue of a runtime
// gatekeeper.Bind subscription.
type ConsumerSite struct {
	Kind OriginKind `json:"kind"`
	Name string     `json:"name"`
	Site SiteRef    `json:"site"`
}

// String renders `site: kind "name"`.
func (c ConsumerSite) String() string {
	return fmt.Sprintf("%s: %s %q", c.Site, c.Kind, c.Name)
}

// Counter names (also mirrored into the obs registry with the "dataflow."
// prefix when the Index has one).
const (
	counterMemo      = "provenance.memo"
	counterRecompute = "provenance.recompute"
	counterRadius    = "radius.query"
)

// DefaultMaxSummaries bounds the content-keyed summary memo. On overflow
// the least-recently-used quarter is evicted (the cdl engine's policy, via
// internal/lru) — content hashes make stale entries unreachable anyway, and
// the summaries the latest analyses touched survive, so an overflow never
// forces the next Analyze to rebuild the whole repo.
const DefaultMaxSummaries = 16384

// Index owns the memoized per-module summaries. It is long-lived (one per
// pipeline, like cdl.Engine): summaries are keyed by the Merkle hash of
// each module's import closure, so analyses across different overlay
// views reuse everything untouched and recompute exactly the edited cone.
type Index struct {
	// Obs, when set, receives dataflow.* counters and the
	// dataflow.radius.size histogram.
	Obs *obs.Registry
	// MaxSummaries caps the memo (DefaultMaxSummaries when 0).
	MaxSummaries int

	engine   *cdl.Engine
	counters *stats.Counters

	mu   sync.Mutex
	memo map[string]*memoEntry
	tick int64
}

// memoEntry is one memoized summary with its last-use tick for eviction.
type memoEntry struct {
	s       *summary
	lastUse int64
}

// NewIndex returns an index sharing the engine's parse cache, import-scan
// memo and closure keyer. The engine is required: summaries are keyed by
// the engine's Keyer, the repo's one closure-key implementation.
func NewIndex(engine *cdl.Engine) *Index {
	if engine == nil {
		panic("dataflow: NewIndex requires a non-nil *cdl.Engine")
	}
	return &Index{
		engine:   engine,
		counters: stats.NewCounters(),
		memo:     make(map[string]*memoEntry),
	}
}

// Counters exposes the memo/recompute/radius counters.
func (ix *Index) Counters() *stats.Counters { return ix.counters }

func (ix *Index) count(name string) {
	ix.counters.Add(name, 1)
	if ix.Obs != nil {
		ix.Obs.Add("dataflow."+name, 1)
	}
}

func (ix *Index) lookup(key string) *summary {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	me, ok := ix.memo[key]
	if !ok {
		return nil
	}
	ix.tick++
	me.lastUse = ix.tick
	return me.s
}

func (ix *Index) store(key string, s *summary) {
	max := ix.MaxSummaries
	if max <= 0 {
		max = DefaultMaxSummaries
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.tick++
	ix.memo[key] = &memoEntry{s: s, lastUse: ix.tick}
	lru.EvictOldest(ix.memo, max, func(me *memoEntry) int64 { return me.lastUse })
}

// Repo is one whole-repo analysis: every loaded module's summary under a
// fixed file-system view. Query methods (Why, Provenance, Radius,
// Determinacy) are read-only and safe for concurrent use.
type Repo struct {
	ix *Index
	// Roots are the analyzed artifact sources, sorted.
	Roots []string
	// Errors records modules that failed to read or parse (analysis
	// continues with a stub for them; configlint reports the parse error).
	Errors []string

	sums map[string]*summary
}

// Analyze summarizes every root and its import closure under fs. Summaries
// for unchanged closures are reused from the index memo; only the edited
// cone — changed files plus their transitive importers — is recomputed.
func (ix *Index) Analyze(fs cdl.FileSystem, roots []string) *Repo {
	b := &builder{
		ix:      ix,
		fs:      fs,
		keys:    ix.engine.NewKeyer(fs),
		sums:    make(map[string]*summary),
		onStack: make(map[string]bool),
	}
	rep := &Repo{ix: ix, sums: b.sums}
	seen := make(map[string]bool, len(roots))
	for _, root := range roots {
		if seen[root] {
			continue
		}
		seen[root] = true
		rep.Roots = append(rep.Roots, root)
		b.summarize(root)
	}
	sort.Strings(rep.Roots)
	for _, s := range b.sums {
		if s.err != "" {
			rep.Errors = append(rep.Errors, s.err)
		}
	}
	sort.Strings(rep.Errors)
	return rep
}

// observeRadius feeds one radius query into the counters and histogram.
func (ix *Index) observeRadius(artifacts int) {
	ix.count(counterRadius)
	if ix.Obs != nil {
		// Size histogram, following the obs idiom for non-duration
		// quantities (cf. net.msg.bytes): one observation per query, value
		// = number of artifacts reached.
		ix.Obs.Observe("dataflow.radius.size", time.Duration(artifacts))
	}
}

// extKinds maps the conventional external-input call names to origin kinds.
var extKinds = map[string]OriginKind{
	"sitevar":    OriginSitevar,
	"gatekeeper": OriginGatekeeper,
	"env":        OriginEnv,
}

// pathOrigin maps a source path under the sitevars/ or gatekeeper/
// conventions to the external input it carries ("" when neither).
func pathOrigin(path string) (OriginKind, string) {
	if rest, ok := strings.CutPrefix(path, "sitevars/"); ok {
		return OriginSitevar, trimExt(rest)
	}
	if rest, ok := strings.CutPrefix(path, "gatekeeper/"); ok {
		return OriginGatekeeper, trimExt(rest)
	}
	return "", ""
}

func trimExt(p string) string {
	if i := strings.LastIndexByte(p, '.'); i > 0 {
		return p[:i]
	}
	return p
}
