// Package analysis is a static analyzer for this repository (the fftxvet
// tool). It loads the module with the standard library's go/parser +
// go/types and enforces the three request-path contracts that no test or
// runtime check can see on every path:
//
//   - hotalloc: the transform hot paths — fft Plan Transform*/transform*
//     methods and the graph.Stage model closures — must not heap-allocate
//     in steady state, directly or through any helper.
//   - waitleak: every send on a serve.Server admission queue must be
//     dominated by a drain guard and a deadline check, so requests are
//     rejected with 503 + Retry-After instead of queueing unboundedly.
//   - spanbalance: every request-span handle minted by a SpanSet/SpanRef
//     Begin must be balanced by a deferred or all-paths End (or visibly
//     hand ownership off), so traced requests never publish span trees
//     with phases that run forever.
//
// The contracts of the simulated runtimes (internal/mpi, internal/vtime,
// internal/ompss) are not here: each is held by exactly one mechanism that
// runs on every go test or go vet — the mpi rendezvous's deadlock report and
// strict tag checks, the vtime and ompss checks on who may block, the
// import-layering test (contracts_test.go) and go vet's copylocks check on
// the vtime.NoCopy marker of the runtime handle types. DESIGN.md §8.1 maps
// each former rule to its enforcement.
//
// hotalloc and spanbalance are interprocedural: a call graph over every
// loaded package (callgraph.go) carries per-function allocation summaries
// computed by fixpoint (summary.go), so an allocation buried N helpers deep
// is reported at the hot-path call with its full path, e.g.
//
//	call to hotalloc.scratch allocates (hotalloc.scratch → hotalloc.grow →
//	make([]complex128)) in PlanLocal.TransformChained
//
// Findings can be suppressed with a trailing or preceding comment of the
// form:
//
//	//fftxvet:ignore rulename — reason
//
// Stale suppressions (comments that no longer match any finding) are
// reported by RunRules / fftxvet -unused-ignores.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
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

// Pass carries everything a rule run needs. Pkg is the package under
// analysis, always one of Prog.Pkgs.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Prog *Program
}

// Rule is one named check.
type Rule struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Diagnostic
}

// AllRules returns every registered rule, in stable order.
func AllRules() []Rule {
	return []Rule{HotAllocRule, WaitLeakRule, SpanBalanceRule}
}

// RunRules executes the rules over one package of prog. diags are the
// surviving (non-suppressed) findings sorted by position; unused holds one
// "unused-ignore" pseudo-finding per //fftxvet:ignore comment that
// suppressed nothing, which is meaningful when rules is AllRules(): an
// ignore naming a rule that did not run, or no longer exists, is stale.
func RunRules(prog *Program, pkg *Package, rules []Rule) (diags, unused []Diagnostic) {
	pass := &Pass{Fset: prog.Fset, Pkg: pkg, Prog: prog}
	for _, r := range rules {
		diags = append(diags, r.Run(pass)...)
	}
	ignores := collectIgnores(prog.Fset, pkg.Files)
	diags = suppress(ignores, diags)
	sortDiags(diags)

	for _, ig := range ignores {
		if ig.used {
			continue
		}
		unused = append(unused, Diagnostic{
			Pos:     ig.pos,
			Rule:    "unused-ignore",
			Message: "//fftxvet:ignore comment suppresses no finding on this line or the next; remove the stale suppression",
		})
	}
	sortDiags(unused)
	return diags, unused
}

// sortDiags orders findings by file, line, column, rule.
func sortDiags(diags []Diagnostic) {
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
}

// ignoreComment is one parsed //fftxvet:ignore comment.
type ignoreComment struct {
	pos   token.Position
	rules map[string]bool // rule names, or {"all": true}
	used  bool
}

// collectIgnores parses every //fftxvet:ignore comment of the files.
func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreComment {
	var ignores []*ignoreComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//fftxvet:ignore")
				if !ok {
					continue
				}
				// Everything up to an em-dash/double-dash separator names
				// the suppressed rules; the rest is the human reason.
				for _, sep := range []string{"—", "--"} {
					if i := strings.Index(text, sep); i >= 0 {
						text = text[:i]
					}
				}
				rules := map[string]bool{}
				for _, name := range strings.FieldsFunc(text, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					rules[name] = true
				}
				if len(rules) == 0 {
					rules["all"] = true
				}
				ignores = append(ignores, &ignoreComment{pos: fset.Position(c.Pos()), rules: rules})
			}
		}
	}
	return ignores
}

// suppress drops diagnostics covered by an //fftxvet:ignore comment on the
// same line or the line directly above, marking the comments that fired.
func suppress(ignores []*ignoreComment, diags []Diagnostic) []Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		covered := false
		for _, ig := range ignores {
			if ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line != d.Pos.Line && ig.pos.Line != d.Pos.Line-1 {
				continue
			}
			if ig.rules[d.Rule] || ig.rules["all"] {
				ig.used = true
				covered = true
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	return kept
}
