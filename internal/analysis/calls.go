package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// callTarget identifies a function or method by the trailing segment of its
// package path, its receiver type name (empty for package functions) and
// its name. Matching on the path suffix keeps the tables independent of the
// module name.
type callTarget struct {
	pkg  string // e.g. "internal/mpi"
	recv string // e.g. "Comm", "" for package-level functions
	name string
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function or method of a call expression,
// including explicitly instantiated generic functions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(f.X)
	case *ast.IndexListExpr:
		fun = unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// targetOf classifies a resolved function as a callTarget.
func targetOf(fn *types.Func) callTarget {
	t := callTarget{name: fn.Name()}
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if i := strings.Index(p, "internal/"); i >= 0 {
			p = p[i:]
		}
		t.pkg = p
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			t.recv = n.Obj().Name()
		}
	}
	return t
}

// namedOf returns the named type behind pointers and aliases, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeIs reports whether t (behind pointers) is the named type name defined
// in a package whose path ends in pkgSuffix.
func typeIs(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgSuffix || strings.HasSuffix(obj.Pkg().Path(), "/"+pkgSuffix)
}

// receiverExpr returns the receiver expression of a method call (rt in
// rt.Taskwait(...)), or nil for package-function calls.
func receiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// rootIdent returns the leftmost identifier of an expression chain
// (a.b.c[i] -> a), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// collectiveSig describes one blocking MPI collective entry point: where
// its tag and communicator arguments live. commArg -1 means the
// communicator is the method receiver.
type collectiveSig struct {
	tagArg  int
	commArg int
}

// mpiCollectives are the collective entry points of internal/mpi. Every
// member of the communicator must call them; they carry a matching tag.
var mpiCollectives = map[callTarget]collectiveSig{
	{"internal/mpi", "", "Alltoallv"}:  {2, 1},
	{"internal/mpi", "", "IAlltoallv"}: {2, 1},
}

// isAsyncCollective marks the non-blocking collective post: it participates
// in tag matching but never blocks the caller.
func isAsyncCollective(t callTarget) bool {
	return t.name == "IAlltoallv"
}

// blockingCall describes a call that blocks the simulated process until
// another process acts. waiterArg is the argument index of the blocked
// context/process; -1 means the method receiver is the blocked process.
type blockingCall struct {
	waiterArg int
}

// blockingCalls is the table of blocking mpi/vtime/ompss entry points the
// blockintask rule polices. ompss.Group.Wait is deliberately absent: it is
// the lane-aware waiting entry point (the waiting worker executes ready
// group tasks inline).
var blockingCalls = map[callTarget]blockingCall{
	{"internal/vtime", "Proc", "Block"}:        {-1},
	{"internal/vtime", "Proc", "BlockOn"}:      {-1},
	{"internal/vtime", "WaitQueue", "Wait"}:    {0},
	{"internal/vtime", "Semaphore", "Acquire"}: {0},
	{"internal/vtime", "Queue", "Pop"}:         {0},
	{"internal/vtime", "Barrier", "Await"}:     {0},
	{"internal/ompss", "Runtime", "Taskwait"}:  {0},
	{"internal/ompss", "Runtime", "Wait"}:      {0},
}

// taskSubmitters are the ompss entry points whose final argument is a task
// body executed later on a worker thread.
var taskSubmitters = map[callTarget]bool{
	{"internal/ompss", "Runtime", "Submit"}:          true,
	{"internal/ompss", "Runtime", "SubmitInGroup"}:   true,
	{"internal/ompss", "Runtime", "TaskLoopInGroup"}: true,
}

// taskBodies collects the function literals passed as task bodies anywhere
// under root.
func taskBodies(info *types.Info, root ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !taskSubmitters[targetOf(fn)] {
			return true
		}
		if lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

// within reports whether pos lies inside node's source range.
func within(pos ast.Node, outer ast.Node) bool {
	return pos.Pos() >= outer.Pos() && pos.End() <= outer.End()
}
