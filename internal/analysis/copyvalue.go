package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CopyValueRule flags by-value copies of the runtime handle types. These
// types carry identity and mutable internal state (wait queues, rendezvous
// maps, dependency graphs); a copy silently forks that state, so two
// apparently identical handles stop observing each other. Creating a fresh
// value with a composite literal or receiving one from a constructor is
// fine — only copies of an existing value are flagged (the go vet
// copylocks convention).
var CopyValueRule = Rule{
	Name: "copyvalue",
	Doc:  "runtime handle types must be passed by pointer, never copied",
	Run:  runCopyValue,
}

// handleTypes lists the types whose values must not be copied, as
// (package-path suffix, type name) pairs.
var handleTypes = [][2]string{
	{"internal/vtime", "Engine"},
	{"internal/vtime", "Proc"},
	{"internal/vtime", "Semaphore"},
	{"internal/vtime", "WaitQueue"},
	{"internal/vtime", "Queue"},
	{"internal/vtime", "Barrier"},
	{"internal/mpi", "World"},
	{"internal/mpi", "Ctx"},
	{"internal/mpi", "Comm"},
	{"internal/ompss", "Runtime"},
	{"internal/ompss", "Group"},
	{"internal/ompss", "Task"},
}

// handleType returns a display name like "mpi.Ctx" when t is a
// non-pointer handle type, or "" otherwise.
func handleType(t types.Type) string {
	if t == nil {
		return ""
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return ""
	}
	for _, h := range handleTypes {
		if typeIs(t, h[0], h[1]) {
			n := namedOf(t)
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
	}
	return ""
}

// copiesValue reports whether the expression reads an existing value (as
// opposed to creating a fresh one via composite literal or call).
func copiesValue(e ast.Expr) bool {
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

func runCopyValue(p *Pass) []Diagnostic {
	info := p.Pkg.Info
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     p.Fset.Position(n.Pos()),
			Rule:    "copyvalue",
			Message: fmt.Sprintf(format, args...),
		})
	}
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := info.Types[field.Type]
			if !ok {
				continue
			}
			if name := handleType(tv.Type); name != "" {
				report(field.Type, "%s passes %s by value; use *%s", what, name, name)
			}
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkFieldList(x.Recv, "receiver")
				checkFieldList(x.Type.Params, "parameter")
				checkFieldList(x.Type.Results, "result")
			case *ast.FuncLit:
				checkFieldList(x.Type.Params, "parameter")
				checkFieldList(x.Type.Results, "result")
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if len(x.Lhs) == len(x.Rhs) {
						// Discarding into the blank identifier copies
						// nothing observable.
						if id, ok := unparen(x.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if !copiesValue(rhs) {
						continue
					}
					tv, ok := info.Types[rhs]
					if !ok {
						continue
					}
					if name := handleType(tv.Type); name != "" {
						report(rhs, "assignment copies %s by value; use a pointer", name)
					}
				}
			case *ast.ValueSpec:
				for _, rhs := range x.Values {
					if !copiesValue(rhs) {
						continue
					}
					tv, ok := info.Types[rhs]
					if !ok {
						continue
					}
					if name := handleType(tv.Type); name != "" {
						report(rhs, "declaration copies %s by value; use a pointer", name)
					}
				}
			case *ast.RangeStmt:
				// The value ident of a := range clause is a definition, so
				// its type lives in Defs rather than Types; TypeOf checks both.
				if x.Value != nil {
					if name := handleType(info.TypeOf(x.Value)); name != "" {
						report(x.Value, "range clause copies %s by value per iteration; range over pointers", name)
					}
				}
			}
			return true
		})
	}
	return diags
}
