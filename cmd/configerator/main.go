// Command configerator is the CLI front door to the config-as-code
// toolchain: compile CDL sources to canonical JSON, validate them, list
// dependency edges, and evaluate sitevar expressions.
//
// Usage:
//
//	configerator compile [-root DIR] FILE.cconf   # compile to stdout
//	configerator build   [-root DIR] FILE.cconf   # write FILE.json next to the source
//	configerator check   [-root DIR] FILE.cconf   # compile + validators, report only
//	configerator deps    [-root DIR] FILE.cconf   # print direct + transitive imports
//	configerator eval    EXPR                     # evaluate a sitevar expression
//	configerator trace   [-json] [COMMIT]         # commit-scoped span tree from a demo fleet
//	configerator status  [-json]                  # fleet convergence, stragglers, SLO alerts
//	configerator vessel  [-json] publish|promote|status   # content-addressed package registry demo
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"configerator/internal/cdl"
	"configerator/internal/core"
)

// dirFS serves CDL modules from a directory tree.
type dirFS struct{ root string }

func (d dirFS) ReadFile(path string) ([]byte, error) {
	clean := filepath.Clean("/" + path) // confine to the root
	return os.ReadFile(filepath.Join(d.root, clean))
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	root := fs.String("root", ".", "config source tree root")
	asJSON := fs.Bool("json", false, "emit deterministic JSON instead of text (trace, status)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	args := fs.Args()

	switch cmd {
	case "compile", "build", "check":
		if len(args) != 1 {
			fatal("%s requires exactly one FILE.cconf", cmd)
		}
		file := args[0]
		res, err := cdl.NewCompiler(dirFS{root: *root}).Compile(file)
		if err != nil {
			fatal("compile failed: %v", err)
		}
		switch cmd {
		case "compile":
			fmt.Println(string(res.JSON))
		case "build":
			out := filepath.Join(*root, core.ArtifactPath(file))
			if err := os.WriteFile(out, append(res.JSON, '\n'), 0o644); err != nil {
				fatal("writing artifact: %v", err)
			}
			fmt.Printf("wrote %s (%d bytes, schema %s)\n", out, len(res.JSON), orNone(res.SchemaName))
		case "check":
			fmt.Printf("OK: %s compiles (schema %s, %d deps), validators passed\n",
				file, orNone(res.SchemaName), len(res.Deps))
		}
	case "deps":
		if len(args) != 1 {
			fatal("deps requires exactly one FILE")
		}
		src, err := dirFS{root: *root}.ReadFile(args[0])
		if err != nil {
			fatal("%v", err)
		}
		direct, err := cdl.ScanImports(args[0], src)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println("direct imports:")
		for _, d := range direct {
			fmt.Println("  " + d)
		}
		if res, err := cdl.NewCompiler(dirFS{root: *root}).Compile(args[0]); err == nil {
			fmt.Println("transitive deps:")
			for _, d := range res.Deps {
				fmt.Println("  " + d)
			}
		}
	case "eval":
		if len(args) != 1 {
			fatal("eval requires exactly one EXPR")
		}
		v, err := cdl.EvalExpr(args[0])
		if err != nil {
			fatal("%v", err)
		}
		js, err := cdl.MarshalJSON(v)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(js)
	case "trace":
		runTrace(args, *asJSON)
	case "status":
		if len(args) != 0 {
			fatal("status takes no arguments")
		}
		runStatus(*asJSON)
	case "vessel":
		runVessel(args, *asJSON)
	case "help", "-h", "--help":
		usage()
	default:
		fatal("unknown command %q", cmd)
	}
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "configerator: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Println(strings.TrimSpace(`
configerator — config-as-code toolchain

  configerator compile [-root DIR] FILE.cconf   compile to stdout
  configerator build   [-root DIR] FILE.cconf   write FILE.json next to the source
  configerator check   [-root DIR] FILE.cconf   compile + run validators
  configerator deps    [-root DIR] FILE         print import edges
  configerator eval    EXPR                     evaluate a sitevar expression
  configerator trace   [-json] [COMMIT]         span tree of a change through a demo fleet
  configerator status  [-json]                  fleet convergence, stragglers, and SLO alerts
  configerator vessel  [-json] publish [NAME [SIZE_MB]]   publish + swarm a package (demo fleet)
  configerator vessel  [-json] promote [NAME TAG VERSION] move a tag through the strip gate
  configerator vessel  [-json] status                     registry packages, versions, and tags
`))
}
