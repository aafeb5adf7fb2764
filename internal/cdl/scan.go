package cdl

// Lexer-only import scanning. The Dependency Service extracts import edges
// from every config source on every change (§3.1); paying a full parse for
// that is wasteful when only the `import "path";` statements matter. The
// scanner tokenizes the source once and collects import paths without
// building an AST.
//
// Soundness: the parser accepts `import` only as a top-level statement, and
// a top-level statement position is never inside brackets, so scanning for
// the `import` keyword at bracket depth zero yields a superset of the
// parser's import list. For any module that parses, the two lists are
// identical; for a module with syntax errors the scanner may report extra
// candidate edges, which is the safe direction for both dependency tracking
// (extra recompiles) and cache keys (extra key material).

// ScanImports returns the module's direct import paths using the lexer
// only — no AST is built. It fails only on lexical errors. It is the
// Dependency Service's extraction entry point (depgraph.ExtractAndSet);
// the engine's Keyer reaches it through a content-addressed memo.
func ScanImports(file string, src []byte) ([]string, error) {
	l := newLexer(file, string(src))
	out := []string{}
	depth := 0
	pendingImport := false
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if pendingImport {
			if t.kind == tokEOF {
				return nil, errf(t.pos, "expected string path after import")
			}
			if t.kind != tokString {
				return nil, errf(t.pos, "expected string path after import, got %q", t.text)
			}
			out = append(out, t.strVal)
			pendingImport = false
			continue
		}
		if t.kind == tokEOF {
			return out, nil
		}
		switch t.kind {
		case tokPunct:
			switch t.text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				depth--
			}
		case tokKeyword:
			if t.text == "import" && depth == 0 {
				pendingImport = true
			}
		}
	}
}
