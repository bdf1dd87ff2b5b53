package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// HotAllocRule codifies the zero-alloc steady-state contract of the fft
// package: after warm-up, a plan's transform methods must not heap-allocate
// — scratch comes from the plan's sync.Pool, twiddles and permutations are
// precomputed. The AllocsPerRun tests pin this dynamically for the shapes
// they run; this rule pins it statically for every path, including helpers
// an AllocsPerRun test never reaches.
//
// Hot roots are (a) Transform*/transform* methods on Plan* types — any
// package's, so the contract follows the type shape, not a hard-coded
// list; the lowercase form catches the internal layout kernels
// (transformRowsSoA, transformColsSoA, ...) that the batch drivers fan
// out to — and (b) the graph.Stage model closures Instr, Bytes, Count and
// Part, which engines call once per stage execution or per task-loop
// partition. Stage Body closures are deliberately NOT roots: a Body builds
// the band's State buffers (PrepSticks, ScatterSplit, ...), which is an
// allocation by design, amortized by the engine's per-band reuse.
//
// The rule counts allocation sites with the summaries' walker (summary.go),
// so the exemptions are theirs: panic arguments are the failure path; calls
// into math, math/bits, math/cmplx, sync, sync/atomic and runtime are
// trusted; everything else outside the module is assumed to allocate.
var HotAllocRule = Rule{
	Name: "hotalloc",
	Doc:  "transform hot paths (Plan.Transform*/transform*, graph.Stage model closures) must not allocate",
	Run:  runHotAlloc,
}

// isStageLit reports whether lit builds a value of the stage-graph
// package's Stage type.
func isStageLit(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	n := namedOf(tv.Type)
	return n != nil && n.Obj().Name() == "Stage" && n.Obj().Pkg() != nil &&
		strings.HasSuffix(n.Obj().Pkg().Path(), "/fftx/graph")
}

// packageFuncDecls maps the package's declared functions and methods to
// their bodies, so closures spelled as function references (Part: helper)
// are checked like inline literals.
func packageFuncDecls(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// hotStageFields are the Stage closures policed as hot roots (Body is
// excluded: it builds the per-band State by design).
var hotStageFields = map[string]bool{
	"Instr": true,
	"Bytes": true,
	"Count": true,
	"Part":  true,
}

func runHotAlloc(p *Pass) []Diagnostic {
	info := p.Pkg.Info
	var diags []Diagnostic
	seen := map[ast.Node]bool{}

	// scanRoot reports every steady-state allocation under a hot root body:
	// direct sites, calls to module helpers whose summary allocates, and
	// assumed-allocating stdlib calls. Unlike the summaries, nested function
	// literals are all included — a closure created inside a transform (a
	// ParallelFor body, say) executes on the hot path.
	scanRoot := func(body ast.Node, where string) {
		if body == nil || seen[body] {
			return
		}
		seen[body] = true
		flag := func(n ast.Node, desc string) {
			diags = append(diags, Diagnostic{
				Pos:  p.Fset.Position(n.Pos()),
				Rule: "hotalloc",
				Message: fmt.Sprintf("%s in %s; the transform hot path is allocation-free in steady state — use the plan's scratch pool or preallocated state",
					desc, where),
			})
		}
		p.Prog.walkAllocs(info, body,
			func(*ast.FuncLit) bool { return true },
			func(n ast.Node, desc string, assumed bool) {
				if !assumed {
					desc += " allocates"
				}
				flag(n, desc)
			},
			func(call *ast.CallExpr, fn *types.Func) {
				if s := p.Prog.SummaryFor(fn); s != nil && s.Allocates {
					flag(call, fmt.Sprintf("call to %s allocates (%s)", s.Key.Display(), p.Prog.allocPath(s.Key)))
				}
			})
	}

	decls := packageFuncDecls(info, p.Pkg.Files)
	for _, f := range p.Pkg.Files {
		// (a) Transform*/transform* methods on Plan* receivers.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "Transform") && !strings.HasPrefix(fd.Name.Name, "transform") {
				continue
			}
			if sig.Recv() == nil {
				continue
			}
			named := namedOf(sig.Recv().Type())
			if named == nil || !strings.HasPrefix(named.Obj().Name(), "Plan") {
				continue
			}
			scanRoot(fd.Body, fmt.Sprintf("%s.%s", named.Obj().Name(), fd.Name.Name))
		}

		// (b) graph.Stage model closures.
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isStageLit(info, lit) {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !hotStageFields[key.Name] {
					continue
				}
				where := fmt.Sprintf("a graph.Stage %s closure", key.Name)
				switch v := unparen(kv.Value).(type) {
				case *ast.FuncLit:
					scanRoot(v.Body, where)
				case *ast.Ident:
					if fn, ok := info.Uses[v].(*types.Func); ok {
						checkStageRef(p, decls, scanRoot, fn, v, where, &diags)
					}
				case *ast.SelectorExpr:
					if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
						checkStageRef(p, decls, scanRoot, fn, v, where, &diags)
					}
				}
			}
			return true
		})
	}
	return diags
}

// checkStageRef handles a stage closure wired in as a function reference:
// same-package declarations are scanned like inline literals, cross-package
// references are judged by their allocation summary at the reference site.
func checkStageRef(p *Pass, decls map[*types.Func]*ast.FuncDecl, scanRoot func(ast.Node, string), fn *types.Func, pos ast.Node, where string, diags *[]Diagnostic) {
	if fd := decls[fn]; fd != nil {
		scanRoot(fd.Body, where)
		return
	}
	if s := p.Prog.SummaryFor(fn); s != nil && s.Allocates {
		*diags = append(*diags, Diagnostic{
			Pos:  p.Fset.Position(pos.Pos()),
			Rule: "hotalloc",
			Message: fmt.Sprintf("closure %s allocates (%s) in %s; the transform hot path is allocation-free in steady state — use the plan's scratch pool or preallocated state",
				s.Key.Display(), p.Prog.allocPath(s.Key), where),
		})
	}
}
