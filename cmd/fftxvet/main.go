// Command fftxvet statically checks the three request-path contracts of
// this repository that no test or runtime check sees on every path:
// allocation on the zero-alloc transform hot paths (hotalloc),
// admission-queue sends missing their drain or deadline guards (waitleak)
// and request-span Begins without a balancing End (spanbalance).
//
// The checks are interprocedural: fftxvet builds a call graph with
// per-function allocation summaries over every package it loads, so an
// allocation buried behind helper functions is reported at the hot-path
// call with its full path (Plan.Transform → scratch → make). Full precision
// therefore needs the whole module in one run — the default "./..." —
// since helpers in packages outside the loaded set have no summaries.
//
// Usage:
//
//	fftxvet [-github] [-unused-ignores] [patterns...]
//
// Patterns follow the go tool's convention: "./..." (the default) analyzes
// every package of the enclosing module; plain directories name single
// packages. Findings print as file:line:col: [rule] message; the exit code
// is 1 when there are findings, 2 on usage or load errors.
//
//	-github          additionally emit GitHub Actions ::error annotations
//	-unused-ignores  report //fftxvet:ignore comments that suppress nothing
//
// Suppress a finding with a trailing or preceding comment:
//
//	//fftxvet:ignore rulename — reason
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	github := flag.Bool("github", false, "additionally emit GitHub Actions ::error annotations")
	unusedIgnores := flag.Bool("unused-ignores", false, "report //fftxvet:ignore comments that suppress nothing")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	modRoot, err := analysis.FindModRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	ldr, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	dirs, err := ldr.Discover(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}

	// Load everything first: the call graph and allocation summaries span every
	// package of the run, so helper chains crossing package boundaries
	// resolve.
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := ldr.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fftxvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if len(pkg.TypeErrors) > 0 {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "fftxvet: %s: %v\n", rel(dir), terr)
			}
			os.Exit(2)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.NewProgram(ldr, pkgs)

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, unused := analysis.RunRules(prog, pkg, analysis.AllRules())
		all = append(all, diags...)
		if *unusedIgnores {
			all = append(all, unused...)
		}
	}
	for i := range all {
		all[i].Pos.Filename = rel(all[i].Pos.Filename)
	}

	for _, d := range all {
		fmt.Println(d)
	}
	if *github {
		for _, d := range all {
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, annotationEscape("["+d.Rule+"] "+d.Message))
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "fftxvet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// annotationEscape escapes a message for a GitHub Actions workflow command.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// rel shortens a path relative to the working directory for readable
// output; absolute paths are kept when outside it.
func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}
