// Command fftxvet statically checks the one request-path contract of this
// repository that no test sees on every path: every send on a fftxd
// admission queue must be dominated by a drain guard and a deadline check
// (waitleak), so requests are rejected with 503 + Retry-After instead of
// queueing unboundedly. The rule is lexical within one function, so each
// package is analyzed on its own.
//
// Usage:
//
//	fftxvet [-github] [patterns...]
//
// Patterns follow the go tool's convention: "./..." (the default) analyzes
// every package of the enclosing module; plain directories name single
// packages. Findings print as file:line:col: [rule] message; the exit code
// is 1 when there are findings, 2 on usage or load errors.
//
//	-github  additionally emit GitHub Actions ::error annotations
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

	var all []analysis.Diagnostic
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
		all = append(all, analysis.RunRules(ldr.Fset, pkg, analysis.AllRules())...)
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
