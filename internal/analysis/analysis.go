// Package analysis is a static analyzer for this repository (the fftxvet
// tool). It loads the module with the standard library's go/parser +
// go/types and enforces the one request-path contract that no test sees on
// every path:
//
//   - waitleak: every send on a serve.Server admission queue must be
//     dominated by a drain guard and a deadline check, so requests are
//     rejected with 503 + Retry-After instead of queueing unboundedly.
//
// Every other contract is held by exactly one mechanism that runs on every
// go test or go vet: the transform hot paths by AllocsPerRun pins in
// internal/fft and internal/fftx, request spans by the closed-span check
// of the serve and cluster test servers, the simulated runtimes
// (internal/mpi, internal/vtime, internal/ompss) by the mpi rendezvous's
// deadlock report and strict tag checks, the vtime and ompss checks on who
// may block, the import-layering tests (contracts_test.go) and go vet's
// copylocks check on the vtime.NoCopy marker of the runtime handle types.
// DESIGN.md §8.1 maps each former rule to its enforcement.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one rule finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the usual file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries everything a rule run needs: the package under analysis and
// the file set its positions resolve in.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
}

// Rule is one named check.
type Rule struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Diagnostic
}

// AllRules returns every registered rule, in stable order.
func AllRules() []Rule {
	return []Rule{WaitLeakRule}
}

// RunRules executes the rules over one package and returns their findings
// sorted by file, line, column and rule.
func RunRules(fset *token.FileSet, pkg *Package, rules []Rule) []Diagnostic {
	pass := &Pass{Fset: fset, Pkg: pkg}
	var diags []Diagnostic
	for _, r := range rules {
		diags = append(diags, r.Run(pass)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}
