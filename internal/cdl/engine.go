package cdl

// The shared compilation engine (§3.1 commit path). The seed compiler
// re-parsed and re-evaluated the entire transitive import graph from
// scratch for every Compile call, so recompiling the dependents of a
// shared .cinc was O(dependents × full module graph). The engine memoizes
// the deterministic parts of that work across Compile calls:
//
//   - parse cache: (path, source-hash) → AST, so a .cinc imported by N
//     configs parses once, not N times;
//   - import-scan memo: path → (source-hash, import list), so keying a
//     view lexes only the files whose bytes changed since the last view;
//   - module cache: Merkle hash of a module's transitive source closure →
//     its evaluated environment, registered schemas, and replayable module
//     effects. The key comes from the Keyer, which the dataflow summary
//     memo shares. Content-hash keys self-invalidate — editing any file
//     in the closure changes the key — and InvalidatePaths evicts the
//     dead entries precisely using the Dependency Service's affected set;
//   - result cache: root closure hash → finished *Result, making the CI
//     double-compile determinism check nearly free;
//   - single-flight module builds, so concurrent compiles that share a
//     dependency evaluate it once instead of once per worker.
//
// Modules that fail the static cache-safety analysis (purity.go) are
// evaluated fresh on every compile — memoization never changes observable
// semantics, it only skips provably repeatable work. Compile errors are
// never cached, so error messages are always produced by a fresh
// evaluation and are byte-identical to the seed compiler's.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"configerator/internal/lru"
	"configerator/internal/stats"
)

// Default cache bounds; exceeding a bound evicts the least-recently-used
// quarter of the cache.
const (
	DefaultMaxParseEntries  = 4096
	DefaultMaxModuleEntries = 4096
	DefaultMaxResultEntries = 8192
)

// Engine is a shared, concurrency-safe CDL compilation engine. The zero
// value is not usable; call NewEngine. One engine is meant to live for the
// whole pipeline lifetime and serve every change's compiles — its caches
// are keyed by content, so overlay filesystems with different staged edits
// share one engine safely.
type Engine struct {
	// CacheDisabled turns the engine into the seed serial compiler: no
	// hashing, no caches, no single-flight. Used by benchmarks as the
	// baseline.
	CacheDisabled bool
	// Workers bounds CompileAll's worker pool (default GOMAXPROCS).
	Workers int
	// Cache bounds (defaults applied by NewEngine).
	MaxParseEntries  int
	MaxModuleEntries int
	MaxResultEntries int

	counters *stats.Counters

	mu      sync.Mutex
	parse   map[string]*parseEntry
	modules map[string]*moduleEntry
	results map[string]*resultEntry
	scans   map[string]*scanEntry
	flights map[string]*flight
	tick    int64
}

// flight is one in-progress module build; concurrent requests for the same
// closure key wait on done instead of duplicating the evaluation.
type flight struct {
	done chan struct{}
	ent  *moduleEntry // nil if the module turned out uncacheable
	err  error
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		MaxParseEntries:  DefaultMaxParseEntries,
		MaxModuleEntries: DefaultMaxModuleEntries,
		MaxResultEntries: DefaultMaxResultEntries,
		counters:         stats.NewCounters(),
		parse:            make(map[string]*parseEntry),
		modules:          make(map[string]*moduleEntry),
		results:          make(map[string]*resultEntry),
		scans:            make(map[string]*scanEntry),
		flights:          make(map[string]*flight),
	}
}

// Counters exposes the engine's cache hit/miss/eviction counters.
func (e *Engine) Counters() *stats.Counters { return e.counters }

// BatchError is CompileAll's failure report: the error produced by the
// lexicographically first failing path. Its message is exactly the
// underlying compile error's, so callers that previously surfaced
// Compiler.Compile errors keep byte-identical output.
type BatchError struct {
	// Path is the requested (root) path whose compile failed — not
	// necessarily the file the error is positioned in.
	Path string
	Err  error
}

// Error implements error.
func (b *BatchError) Error() string { return b.Err.Error() }

// Unwrap exposes the underlying compile error.
func (b *BatchError) Unwrap() error { return b.Err }

// ---- closure keys ----

// keyInfo is the keyed view of one source file under one FileSystem: its
// content, Merkle closure key, and the keyInfos of its direct imports in
// import order. err records why a key could not be computed (unreadable
// file, lexical error, import cycle, or any of these in an import); such
// paths compile uncached and summarize unmemoized.
type keyInfo struct {
	path string
	src  []byte
	key  string
	deps []*keyInfo
	err  error

	closureOnce sync.Once
	closureList []string
}

// closure returns every path in the transitive source closure, including
// the module itself, sorted. Only cache stores (for InvalidatePaths) and
// CompileAll's wave planning need it, so it is derived from deps on first
// use rather than while keying. Call it only when err is nil: a keyable
// closure is acyclic.
func (ki *keyInfo) closure() []string {
	ki.closureOnce.Do(func() {
		seen := make(map[string]bool)
		var visit func(k *keyInfo)
		visit = func(k *keyInfo) {
			if seen[k.path] {
				return
			}
			seen[k.path] = true
			ki.closureList = append(ki.closureList, k.path)
			for _, d := range k.deps {
				visit(d)
			}
		}
		visit(ki)
		sort.Strings(ki.closureList)
	})
	return ki.closureList
}

// Keyer computes Merkle closure keys for one FileSystem view. A module's
// key hashes its path, the sha256 of its bytes, and each direct import's
// key in import order, so editing any file in a closure changes the key of
// every module whose closure holds it — the key needs no invalidation
// protocol. It is the repo's one closure-key implementation: the engine's
// module and result caches and the dataflow summary memo all key on it.
//
// Keys are memoized per path for the keyer's lifetime, so a keyer must not
// outlive the view it reads. Import lists come from the engine's
// content-addressed scan memo, so a file whose bytes are unchanged since
// any earlier keyer saw them is hashed but never lexed again. A Keyer is
// safe for concurrent use; the mutex serializes the recursive walk, which
// is cheap (reads + sha256, no parsing or evaluation).
type Keyer struct {
	eng  *Engine
	fs   FileSystem
	mu   sync.Mutex
	memo map[string]*keyInfo
}

// NewKeyer returns a closure keyer over fs backed by the engine's import
// memo.
func (e *Engine) NewKeyer(fs FileSystem) *Keyer {
	return &Keyer{eng: e, fs: fs, memo: make(map[string]*keyInfo)}
}

// Key returns path's closure key. A non-nil error means the closure cannot
// be keyed — a file in it is unreadable or fails to lex, or it contains an
// import cycle — and the module must be treated as uncacheable.
func (k *Keyer) Key(path string) (string, error) {
	ki := k.info(path)
	return ki.key, ki.err
}

// info returns the keyInfo for path, keying (and memoizing) its whole
// transitive closure on first use.
func (k *Keyer) info(path string) *keyInfo {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.walk(path, make(map[string]bool))
}

func (k *Keyer) walk(path string, visiting map[string]bool) *keyInfo {
	if ki, ok := k.memo[path]; ok {
		return ki
	}
	if visiting[path] {
		// Genuine import cycle: every path on the cycle is permanently
		// unkeyable, so memoizing the error is correct.
		ki := &keyInfo{path: path, err: fmt.Errorf("cdl: import cycle through %q", path)}
		k.memo[path] = ki
		return ki
	}
	ki := &keyInfo{path: path}
	src, err := k.fs.ReadFile(path)
	if err != nil {
		ki.err = err
		k.memo[path] = ki
		return ki
	}
	ki.src = src
	sum := sha256.Sum256(src)
	imports, err := k.eng.scanImports(path, src, sum)
	if err != nil {
		ki.err = err
		k.memo[path] = ki
		return ki
	}

	visiting[path] = true
	hash := sha256.New()
	hash.Write([]byte("cdl-module\x00"))
	hash.Write([]byte(path))
	hash.Write([]byte{0})
	hash.Write(sum[:])
	ki.deps = make([]*keyInfo, len(imports))
	for i, imp := range imports {
		sub := k.walk(imp, visiting)
		if sub.err != nil && ki.err == nil {
			ki.err = sub.err
		}
		ki.deps[i] = sub
		hash.Write([]byte{0})
		hash.Write([]byte(sub.key))
	}
	delete(visiting, path)
	if ki.err == nil {
		ki.key = hex.EncodeToString(hash.Sum(nil))
	}
	k.memo[path] = ki
	return ki
}

// ---- import-scan memo ----

// scanImports is ScanImports memoized by content: the engine keeps, per
// path, the sha256 of the bytes last scanned there and their import list
// or lexical error, so a module whose bytes have not changed is never
// lexed again and a lexical error comes back as the same error. sum is
// sha256(src), which the caller already holds for the closure key. The
// memo holds at most one entry per path and shares the parse cache's
// bound.
func (e *Engine) scanImports(path string, src []byte, sum [sha256.Size]byte) ([]string, error) {
	e.mu.Lock()
	if se, ok := e.scans[path]; ok && se.sum == sum {
		se.lastUse = e.nextTick()
		e.mu.Unlock()
		return se.imports, se.err
	}
	e.counters.Add("scan.miss", 1)
	e.mu.Unlock()

	imports, err := ScanImports(path, src)
	e.mu.Lock()
	e.scans[path] = &scanEntry{sum: sum, imports: imports, err: err, lastUse: e.nextTick()}
	e.counters.Add("evict.scan", int64(lru.EvictOldest(e.scans, e.MaxParseEntries,
		func(se *scanEntry) int64 { return se.lastUse })))
	e.mu.Unlock()
	return imports, err
}

// ---- parse cache ----

// parseModule parses src (content-addressed, memoized). Parse errors are
// cached too: the same bytes always produce the same error.
func (e *Engine) parseModule(path string, src []byte) (*Module, error) {
	if e.CacheDisabled {
		return Parse(path, string(src))
	}
	sum := sha256.Sum256(src)
	key := path + "\x00" + string(sum[:])
	e.mu.Lock()
	if pe, ok := e.parse[key]; ok {
		pe.lastUse = e.nextTick()
		e.counters.Add("parse.hit", 1)
		e.mu.Unlock()
		return pe.mod, pe.err
	}
	e.counters.Add("parse.miss", 1)
	e.mu.Unlock()

	mod, err := Parse(path, string(src))
	pe := &parseEntry{mod: mod, err: err}
	if err == nil {
		pe.safe = astCacheSafe(mod)
		pe.structRefs = collectStructRefs(mod)
	}
	e.mu.Lock()
	pe.lastUse = e.nextTick()
	e.parse[key] = pe
	e.counters.Add("evict.parse", int64(lru.EvictOldest(e.parse, e.MaxParseEntries,
		func(p *parseEntry) int64 { return p.lastUse })))
	e.mu.Unlock()
	return mod, err
}

// ParseCached parses src through the engine's content-addressed parse
// cache: the same (path, bytes) pair is parsed once no matter how many
// callers ask. This is the entry point the configlint driver uses, so a
// lint of N dependents sharing a .cinc parses the shared file exactly once
// — and a lint run immediately after a compile (or vice versa) reuses the
// other's parse work entirely.
func (e *Engine) ParseCached(path string, src []byte) (*Module, error) {
	return e.parseModule(path, src)
}

// parseMeta reports the cached cache-safety verdict and struct-literal
// type names for already-parsed content (false/nil when unknown).
func (e *Engine) parseMeta(path string, src []byte) (bool, []string) {
	sum := sha256.Sum256(src)
	key := path + "\x00" + string(sum[:])
	e.mu.Lock()
	defer e.mu.Unlock()
	if pe, ok := e.parse[key]; ok && pe.err == nil {
		return pe.safe, pe.structRefs
	}
	return false, nil
}

// ---- module cache ----

// module returns the cached module entry for key (counting hit/miss), or
// nil.
func (e *Engine) module(key string) *moduleEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.modules[key]
	if !ok {
		e.counters.Add("module.miss", 1)
		return nil
	}
	ent.lastUse = e.nextTick()
	if ent.uncacheable {
		e.counters.Add("module.uncacheable", 1)
	} else {
		e.counters.Add("module.hit", 1)
	}
	return ent
}

// peekModule is module without counters, for internal bookkeeping.
func (e *Engine) peekModule(key string) *moduleEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.modules[key]
}

func (e *Engine) storeModule(ent *moduleEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent.lastUse = e.nextTick()
	e.modules[ent.key] = ent
	e.counters.Add("evict.module", int64(lru.EvictOldest(e.modules, e.MaxModuleEntries,
		func(m *moduleEntry) int64 { return m.lastUse })))
}

// storeUncacheable records a negative entry so future compiles skip the
// build attempt for this closure. It never overwrites a real entry (an
// activation that fell back for context reasons must not poison the cache
// for other compiles).
func (e *Engine) storeUncacheable(key, path string, closure []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.modules[key]; ok {
		return
	}
	e.modules[key] = &moduleEntry{key: key, path: path, uncacheable: true, closure: closure, lastUse: e.nextTick()}
	e.counters.Add("evict.module", int64(lru.EvictOldest(e.modules, e.MaxModuleEntries,
		func(m *moduleEntry) int64 { return m.lastUse })))
}

// buildModule evaluates one cacheable module in an isolated load state and
// publishes the entry, single-flighted per closure key so concurrent
// compiles sharing a dependency evaluate it exactly once. Returns
// (nil, nil) when the module turns out uncacheable.
func (e *Engine) buildModule(h *Keyer, path string, info *keyInfo) (*moduleEntry, error) {
	e.mu.Lock()
	if ent, ok := e.modules[info.key]; ok { // raced with another builder
		e.mu.Unlock()
		if ent.uncacheable {
			return nil, nil
		}
		return ent, nil
	}
	if f, ok := e.flights[info.key]; ok {
		e.mu.Unlock()
		<-f.done
		return f.ent, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[info.key] = f
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.flights, info.key)
		e.mu.Unlock()
		close(f.done)
	}()

	// Fast path: if the module's own AST is already known-unsafe, skip the
	// evaluation entirely.
	if _, err := e.parseModule(path, info.src); err != nil {
		f.err = err
		return nil, err
	}
	if safe, _ := e.parseMeta(path, info.src); !safe {
		e.storeUncacheable(info.key, path, info.closure())
		return nil, nil
	}

	e.counters.Add("module.build", 1)
	st := newLoadState(e, h.fs, h)
	st.building = info.key
	if _, err := st.load(path); err != nil {
		f.err = err
		return nil, err
	}
	// evalModule stored either the real entry or an uncacheable marker
	// (when a transitive dependency was unsafe).
	ent := e.peekModule(info.key)
	if ent == nil || ent.uncacheable {
		return nil, nil
	}
	f.ent = ent
	return ent, nil
}

// ---- result cache ----

func (e *Engine) lookupResult(key string) *Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	if re, ok := e.results[key]; ok {
		re.lastUse = e.nextTick()
		e.counters.Add("result.hit", 1)
		return cloneResult(re.res)
	}
	e.counters.Add("result.miss", 1)
	return nil
}

func (e *Engine) storeResult(key string, res *Result, closure []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[key] = &resultEntry{res: cloneResult(res), closure: closure, lastUse: e.nextTick()}
	e.counters.Add("evict.result", int64(lru.EvictOldest(e.results, e.MaxResultEntries,
		func(r *resultEntry) int64 { return r.lastUse })))
}

// nextTick must be called with e.mu held.
func (e *Engine) nextTick() int64 {
	e.tick++
	return e.tick
}

// ---- invalidation ----

// InvalidatePaths evicts every module and result entry whose transitive
// source closure intersects the given paths, plus parse entries for the
// paths themselves. Content-hash keys mean stale entries can never be hit
// again regardless; invalidation reclaims their memory immediately. The
// pipeline calls this with the Dependency Service's affected set (changed
// files plus all transitive importers) after a change lands.
func (e *Engine) InvalidatePaths(paths ...string) int {
	if len(paths) == 0 {
		return 0
	}
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	touches := func(closure []string) bool {
		for _, p := range closure {
			if set[p] {
				return true
			}
		}
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := 0
	for k, ent := range e.modules {
		if touches(ent.closure) {
			delete(e.modules, k)
			dropped++
		}
	}
	for k, re := range e.results {
		if touches(re.closure) {
			delete(e.results, k)
			dropped++
		}
	}
	for k, pe := range e.parse {
		if pe.mod != nil && set[pe.mod.Path] {
			delete(e.parse, k)
			dropped++
		}
	}
	e.counters.Add("invalidate", int64(dropped))
	return dropped
}

// ---- compile entry points ----

// Compile compiles a single module through the engine's caches.
func (e *Engine) Compile(fs FileSystem, path string) (*Result, error) {
	var h *Keyer
	if !e.CacheDisabled {
		h = e.NewKeyer(fs)
	}
	return e.compileOne(fs, h, path)
}

func (e *Engine) compileOne(fs FileSystem, h *Keyer, path string) (*Result, error) {
	var info *keyInfo
	if h != nil {
		info = h.info(path)
		if info.err == nil {
			if res := e.lookupResult(info.key); res != nil {
				return res, nil
			}
		}
	}
	st := newLoadState(e, fs, h)
	env, err := st.load(path)
	var res *Result
	if err == nil {
		res, err = st.finish(path, env)
	}
	if st.usedCache && st.global.version > 0 {
		// A module rebound a shared global binding (assigned over a
		// builtin) after cached modules — which bake a pristine global —
		// were spliced in. Redo the whole compile uncached for exact seed
		// semantics; this is the rare escape hatch, not a hot path.
		e.counters.Add("compile.uncached_redo", 1)
		st = newLoadState(e, fs, nil)
		env, err = st.load(path)
		if err != nil {
			return nil, err
		}
		return st.finish(path, env)
	}
	if err != nil {
		return nil, err
	}
	if info != nil && info.err == nil && st.cached[path] && st.global.version == 0 {
		e.storeResult(info.key, res, info.closure())
	}
	return res, nil
}

// CompileAll compiles the given paths (deduplicated) through a bounded
// worker pool, scheduling them in dependency-topological waves so that
// requested paths imported by other requested paths are compiled — and
// cached — first. The returned results cover every path that compiled
// successfully, sorted by path; the error (a *BatchError, nil when all
// succeed) is the lexicographically first failing path's error, so output
// is reproducible run-to-run and identical between GOMAXPROCS=1 and
// parallel execution.
func (e *Engine) CompileAll(fs FileSystem, paths []string) ([]*Result, error) {
	uniq := make([]string, 0, len(paths))
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	sort.Strings(uniq)

	var h *Keyer
	waves := [][]string{uniq}
	if !e.CacheDisabled {
		h = e.NewKeyer(fs)
		waves = planWaves(h, uniq)
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	resByPath := make(map[string]*Result, len(uniq))
	errByPath := make(map[string]error)
	var mu sync.Mutex
	for _, wave := range waves {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, p := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(p string) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := e.compileOne(fs, h, p)
				mu.Lock()
				if err != nil {
					errByPath[p] = err
				} else {
					resByPath[p] = res
				}
				mu.Unlock()
			}(p)
		}
		wg.Wait()
	}

	out := make([]*Result, 0, len(resByPath))
	for _, p := range uniq {
		if res, ok := resByPath[p]; ok {
			out = append(out, res)
		}
	}
	var batchErr error
	for _, p := range uniq { // uniq is sorted: first failing path wins
		if err, ok := errByPath[p]; ok {
			batchErr = &BatchError{Path: p, Err: err}
			break
		}
	}
	return out, batchErr
}

// planWaves orders the requested paths into dependency-topological waves:
// a path lands in a later wave than any requested path inside its own
// transitive closure. Paths whose closures cannot be hashed (cycles,
// unreadable imports) go in the first wave and surface their errors from a
// fresh compile.
func planWaves(h *Keyer, paths []string) [][]string {
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	level := make(map[string]int, len(paths))
	var levelOf func(p string, guard map[string]bool) int
	levelOf = func(p string, guard map[string]bool) int {
		if l, ok := level[p]; ok {
			return l
		}
		if guard[p] {
			return 0
		}
		guard[p] = true
		defer delete(guard, p)
		l := 0
		info := h.info(p)
		if info.err == nil {
			for _, dep := range info.closure() {
				if dep != p && requested[dep] {
					if dl := levelOf(dep, guard) + 1; dl > l {
						l = dl
					}
				}
			}
		}
		level[p] = l
		return l
	}
	maxLevel := 0
	for _, p := range paths {
		if l := levelOf(p, make(map[string]bool)); l > maxLevel {
			maxLevel = l
		}
	}
	waves := make([][]string, maxLevel+1)
	for _, p := range paths { // paths already sorted: waves stay sorted
		waves[level[p]] = append(waves[level[p]], p)
	}
	out := waves[:0]
	for _, w := range waves {
		if len(w) > 0 {
			out = append(out, w)
		}
	}
	return out
}
