// Command planaria-vet runs the repository's determinism and
// performance analyzers (internal/analysis) over the named package
// patterns and reports every violation of the determinism contract
// (DESIGN.md §8) or the performance contract (DESIGN.md §13). It exits
// non-zero when any finding remains, so CI can gate merges on a clean
// tree:
//
//	go run ./cmd/planaria-vet ./...
//
// Patterns follow the go tool: a directory, or a directory followed by
// /... to walk its subtree. With no arguments, ./... is assumed.
// Non-test files of each package are analyzed; testdata trees are
// skipped.
//
// All matched packages are loaded before any analyzer runs so the
// //perf:hot closure propagates across package boundaries (sim.Node.run
// reaches into sched, obs, fault, ...).
//
// With -json FILE, the diagnostics are additionally written to FILE as
// a JSON array of {file, line, col, analyzer, message} objects — CI
// uploads this as a build artifact. The file is written (possibly as an
// empty array) whether or not findings exist.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"planaria/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.String("json", "", "write diagnostics to `file` as JSON")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: planaria-vet [-list] [-json file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := vet(patterns, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "planaria-vet: %v\n", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "planaria-vet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// jsonDiagnostic is one finding in the -json artifact.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func vet(patterns []string, jsonOut string) (int, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		return 0, err
	}
	dirs, err := analysis.PackageDirs(cwd, patterns)
	if err != nil {
		return 0, err
	}
	if len(dirs) == 0 {
		return 0, fmt.Errorf("no packages match %v", patterns)
	}

	// Load everything first: the //perf:hot closure must see every
	// package so hotness propagates across import edges.
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return 0, err
		}
		pkgs = append(pkgs, pkg)
	}
	hot := analysis.ComputeHot(pkgs)

	diags := []jsonDiagnostic{}
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			found, err := analysis.RunWithHot(a, pkg, hot)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range found {
				pos := pkg.Fset.Position(d.Pos)
				rel, rerr := filepath.Rel(cwd, pos.Filename)
				if rerr != nil {
					rel = pos.Filename
				}
				fmt.Printf("%s:%d:%d: %s (%s)\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
				diags = append(diags, jsonDiagnostic{
					File:     filepath.ToSlash(rel),
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			}
		}
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			return 0, err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return 0, err
		}
	}
	return len(diags), nil
}
