package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Per-function allocation summaries. Each declared function gets one bit —
// "may heap-allocate on the steady-state (non-panic) path" — seeded from
// the allocation sites its body contains and closed under "calls a
// function that may allocate" by fixpoint over the call graph. The bit only
// ever goes from false to true, so the fixpoint exists and is reached in at
// most |nodes| rounds (in practice two or three). hotalloc reads it.

// origin records the first site that makes a function allocate: either an
// allocation site of its own body (callee zero) or a call to a module
// function that already allocates (callee set). Chasing callee links
// rebuilds the helper chain a diagnostic prints.
type origin struct {
	desc   string  // e.g. "make([]complex128)", "fmt.Sprintf (assumed to allocate)"
	callee FuncKey // non-zero when the allocation arrives through a module call
}

// Summary is the allocation summary of one declared function.
type Summary struct {
	Key       FuncKey
	Allocates bool
	origin    origin
}

// add marks the function allocating with its origin, first site wins.
func (s *Summary) add(o origin) {
	if !s.Allocates {
		s.Allocates = true
		s.origin = o
	}
}

// allocPath renders the chain by which the function keyed k allocates,
// "fn → helper → make([]T)", for a diagnostic about a call to it.
func (p *Program) allocPath(k FuncKey) string {
	parts := []string{k.Display()}
	for seen := map[FuncKey]bool{}; !k.IsZero() && !seen[k]; {
		seen[k] = true
		s := p.sums[k]
		if s == nil || !s.Allocates {
			break
		}
		parts = append(parts, s.origin.desc)
		k = s.origin.callee
	}
	return strings.Join(parts, " → ")
}

// nonAllocStd are the standard-library packages whose calls are trusted not
// to allocate on the steady-state path. Everything else outside the module
// is assumed to allocate: the analysis cannot see export-data bodies, and
// for a hot-path rule a false positive ("don't call fmt here") is a better
// failure mode than a silent miss. sync is on the list for the scratch-pool
// pattern (a pool hit is allocation-free; the pool's New misses are the
// cold path).
var nonAllocStd = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"math/cmplx":  true,
	"sync":        true,
	"sync/atomic": true,
	"runtime":     true,
}

// computeSummaries seeds every node's own allocation sites and call edges,
// then propagates the bit over the edges to fixpoint. Only function
// literals that run as part of the declaring function (see invokedLits)
// count toward its summary.
func (p *Program) computeSummaries() {
	for _, k := range p.keys {
		n := p.nodes[k]
		sum := &Summary{Key: k}
		p.sums[k] = sum
		invoked := invokedLits(n.decl.Body)
		p.walkAllocs(n.pkg.Info, n.decl.Body,
			func(lit *ast.FuncLit) bool { return invoked[lit] },
			func(_ ast.Node, desc string, _ bool) { sum.add(origin{desc: desc}) },
			func(_ *ast.CallExpr, fn *types.Func) { p.edges[k] = append(p.edges[k], keyOf(fn)) })
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.keys {
			sum := p.sums[k]
			if sum.Allocates {
				continue
			}
			for _, to := range p.edges[k] {
				if callee := p.sums[to]; callee != nil && callee.Allocates {
					sum.add(origin{desc: to.Display(), callee: to})
					changed = true
					break
				}
			}
		}
	}
}

// walkAllocs visits the steady-state allocation sites under body and its
// calls to module functions, in source order. Allocation sites: make, new,
// append, slice/map composite literals, &T{...}, and calls to
// standard-library functions outside nonAllocStd (assumed is true for
// those). Allocation inside panic arguments is exempt: it is the failure
// path. Not counted (documented scope): go statements, channel sends,
// string concatenation, closure creation — none appear on the module's hot
// paths. Calls to module functions are visited even inside panic
// arguments. A function literal is entered only when enter reports true.
func (p *Program) walkAllocs(info *types.Info, body ast.Node,
	enter func(*ast.FuncLit) bool,
	alloc func(n ast.Node, desc string, assumed bool),
	call func(n *ast.CallExpr, fn *types.Func)) {
	exempt := panicRanges(info, body)
	site := func(n ast.Node, desc string, assumed bool) {
		if !inRanges(exempt, n.Pos()) {
			alloc(n, desc, assumed)
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return enter(x)
		case *ast.UnaryExpr:
			if cl, ok := unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				site(x, "&"+compositeDesc(info, cl)+"{...}", false)
			}
		case *ast.CompositeLit:
			if allocatingLitType(info, x) {
				site(x, compositeDesc(info, x)+"{...}", false)
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						site(x, builtinAllocDesc(b.Name(), x), false)
					}
					return true
				}
			}
			fn := calleeFunc(info, x)
			switch {
			case fn == nil:
			case p.isModuleFunc(fn):
				call(x, fn)
			case fn.Pkg() != nil && !nonAllocStd[fn.Pkg().Path()]:
				site(x, keyOf(fn).Display()+" (assumed to allocate)", true)
			}
		}
		return true
	})
}

// allocatingLitType reports whether the composite literal allocates backing
// store by itself: slice and map literals do, array and struct values do
// not (struct pointers are caught at the &T{...} site).
func allocatingLitType(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// compositeDesc names a composite literal's type for diagnostics.
func compositeDesc(info *types.Info, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type)
	}
	if tv, ok := info.Types[lit]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "composite"
}

// builtinAllocDesc names a make/new/append site for diagnostics.
func builtinAllocDesc(name string, call *ast.CallExpr) string {
	if len(call.Args) > 0 && (name == "make" || name == "new") {
		return name + "(" + types.ExprString(call.Args[0]) + ")"
	}
	return name
}
