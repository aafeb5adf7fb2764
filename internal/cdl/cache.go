package cdl

// Cache storage for the compilation engine: a content-addressed parse
// cache, an import-scan memo, a module-evaluation cache keyed by the
// Merkle hash of a module's transitive source closure, and a whole-compile
// result cache. All four live behind the Engine mutex and are bounded by
// the shared lru policy; entries are immutable once published, so readers
// share them freely across goroutines.

import "crypto/sha256"

// parseEntry is one cached parse, keyed by (path, source hash). The path
// is part of the key because AST positions embed the file name.
type parseEntry struct {
	mod *Module
	err error
	// safe is the astCacheSafe verdict, computed once per parse.
	safe bool
	// structRefs are the module's own StructExpr type names (sorted), fed
	// into moduleEntry.schemaRefs for the activation visibility check.
	structRefs []string
	lastUse    int64
}

// scanEntry is the import-scan memo's one entry per path: the sha256 of
// the bytes last scanned there and what ScanImports returned for them (the
// import list, or the lexical error). A path whose bytes change replaces
// its entry, so the memo never holds more than one entry per path.
type scanEntry struct {
	sum     [sha256.Size]byte
	imports []string
	err     error
	lastUse int64
}

// registeredValidator is a validator statement bound to the environment of
// the module that declared it.
type registeredValidator struct {
	stmt *ValidatorStmt
	env  *Env
}

// modEffect is one replayable module-level side effect, in statement
// order. Activating a cached module replays its effects exactly where the
// seed compiler would have produced them, which preserves "last export
// wins" and validator registration order even when exports or validators
// interleave with imports.
type modEffect struct {
	// importPath, when non-empty, loads a dependency at this position.
	importPath string
	// validator, when non-nil, registers a validator bound to the cached
	// module environment.
	validator *registeredValidator
	// hasExport marks an export statement; export is its evaluated value.
	hasExport bool
	export    Value
}

// moduleEntry is one memoized module evaluation. key is the Merkle hash of
// the module's transitive source closure, so any change to the module or
// anything it imports produces a different key — stale entries can never
// be hit. uncacheable entries are negative results: the module (or one of
// its dependencies) failed the cache-safety analysis and must be evaluated
// fresh each compile.
type moduleEntry struct {
	key         string
	path        string
	uncacheable bool

	env     *Env
	schemas []*SchemaDef
	effects []modEffect
	// imports are the direct import paths in statement order (the root
	// module's Result.Imports).
	imports []string
	// closure is every path in the transitive source closure (including
	// the module itself), used for depgraph-driven invalidation.
	closure []string
	// schemaNames is every schema name registered by the closure, and
	// schemaRefs every StructExpr type name appearing in the closure.
	// Activation re-checks that no ref resolves to a schema registered by
	// a module outside the closure — the one way compile-global schema
	// state could make a cached evaluation diverge from a fresh one.
	schemaNames map[string]bool
	schemaRefs  []string

	lastUse int64
}

// resultEntry is one memoized whole-compile result, keyed by the root
// module's closure hash.
type resultEntry struct {
	res     *Result
	closure []string
	lastUse int64
}
