package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph that the allocation
// summaries (summary.go) and spanbalance's span-ender closure propagate
// over. The graph's nodes are the declared functions
// and methods of every loaded package; its edges are the statically
// resolvable direct calls between them. Calls through function values,
// interface methods and unresolvable selectors have no edge — the analysis
// is deliberately optimistic about indirection and exact about what it can
// see, which is the right trade for a repo-specific linter: no finding it
// reports can be argued away, and the AllocsPerRun tests backstop the rest.

// FuncKey names a declared function or method without relying on object
// identity. The loader type-checks a package twice — once as a plain import
// (no Info) and once as an analysis target — so *types.Func pointers for
// one function differ between the two views while the (package, receiver,
// name) triple does not. Go has no overloading, so the triple is unique.
type FuncKey struct {
	Pkg  string // full import path
	Recv string // receiver type name, "" for package-level functions
	Name string
}

// IsZero reports whether k is the zero key (no function).
func (k FuncKey) IsZero() bool { return k == FuncKey{} }

// Display renders the key the way diagnostics spell call paths:
// pkgbase.Recv.Name (e.g. "graph.Kernel.FFTZPart", "mpi.IAlltoallv").
func (k FuncKey) Display() string {
	base := k.Pkg
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if k.Recv != "" {
		return base + "." + k.Recv + "." + k.Name
	}
	return base + "." + k.Name
}

// keyOf derives the FuncKey of a resolved function object. Instantiated
// generics map to their origin declaration.
func keyOf(fn *types.Func) FuncKey {
	fn = fn.Origin()
	k := FuncKey{Name: fn.Name()}
	if fn.Pkg() != nil {
		k.Pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			k.Recv = n.Obj().Name()
		}
	}
	return k
}

// funcNode is one call-graph node: a declared function with a body.
type funcNode struct {
	key  FuncKey
	pkg  *Package
	decl *ast.FuncDecl
}

// Program is the whole-module view: every loaded package, the call graph
// over their declared functions, and the per-function allocation summaries.
// Rules receive it through Pass.Prog; single-package runs (the rule unit
// tests) build a Program over just that package, which soundly degrades the
// interprocedural checks to what is visible.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	Pkgs    []*Package

	nodes map[FuncKey]*funcNode
	keys  []FuncKey             // sorted, for deterministic fixpoint iteration
	edges map[FuncKey][]FuncKey // direct calls out of each node, in source order
	sums  map[FuncKey]*Summary
}

// NewProgram builds the call graph and allocation summaries over pkgs.
func NewProgram(l *Loader, pkgs []*Package) *Program {
	p := &Program{
		Fset:    l.Fset,
		ModPath: l.modPath,
		Pkgs:    pkgs,
		nodes:   map[FuncKey]*funcNode{},
		edges:   map[FuncKey][]FuncKey{},
		sums:    map[FuncKey]*Summary{},
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				k := keyOf(fn)
				p.nodes[k] = &funcNode{key: k, pkg: pkg, decl: fd}
			}
		}
	}
	p.keys = make([]FuncKey, 0, len(p.nodes))
	for k := range p.nodes {
		p.keys = append(p.keys, k)
	}
	sort.Slice(p.keys, func(i, j int) bool {
		a, b := p.keys[i], p.keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Recv != b.Recv {
			return a.Recv < b.Recv
		}
		return a.Name < b.Name
	})
	p.computeSummaries()
	return p
}

// isModuleFunc reports whether fn is declared in the analyzed module.
func (p *Program) isModuleFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == p.ModPath || strings.HasPrefix(path, p.ModPath+"/")
}

// SummaryFor returns the allocation summary of a resolved function, or nil
// for functions outside the program (stdlib, interface methods, packages
// not loaded in this run).
func (p *Program) SummaryFor(fn *types.Func) *Summary {
	return p.sums[keyOf(fn)]
}

// invokedLits collects the function literals under body that execute as
// part of the enclosing function itself: immediately invoked (func(){...}())
// and deferred-and-invoked literals. Every other literal (stored, returned,
// passed as a callback) runs in some other context and is analyzed at its
// consumption site, not folded into this function's summary — folding it
// in would, for example, brand par.ParallelFor itself with every
// allocation of every body ever passed to it.
func invokedLits(body ast.Node) map[*ast.FuncLit]bool {
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})
	return invoked
}

// posRange is a half-open source interval.
type posRange struct {
	from, to token.Pos
}

// panicRanges collects the argument ranges of panic(...) calls under body.
// Allocation inside a panic argument is the failure path — exempt from the
// zero-alloc steady-state contract.
func panicRanges(info *types.Info, body ast.Node) []posRange {
	var rs []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				rs = append(rs, posRange{call.Pos(), call.End()})
			}
		}
		return true
	})
	return rs
}

// inRanges reports whether pos falls inside any of the ranges.
func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}
