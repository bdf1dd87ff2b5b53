package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WaitLeakRule enforces the admission discipline of internal/serve: every
// send on a Server's admission queue must be dominated by a drain guard
// (reading the draining flag or calling Draining()) AND a deadline check
// (calling task.expired or reading the deadline field) so that requests are
// rejected with 503 + Retry-After instead of queueing unboundedly into a
// server that will never serve them. The canonical shape is Server.admit in
// internal/serve/batch.go: RLock, draining check, expired check, then a
// non-blocking select send.
//
// The domination check is lexical within the enclosing function declaration
// — each guard must appear before the send — which matches how admission
// code is actually written and keeps the rule dependency-free; a guard
// hidden behind a helper call does not count, by design: admission re-checks
// must be visibly local to the enqueue.
var WaitLeakRule = Rule{
	Name: "waitleak",
	Doc:  "admission-queue sends must be dominated by drain and deadline guards",
	Run:  runWaitLeak,
}

func runWaitLeak(p *Pass) []Diagnostic {
	info := p.Pkg.Info
	var diags []Diagnostic
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				send, ok := n.(*ast.SendStmt)
				if !ok {
					return true
				}
				sel, ok := unparen(send.Chan).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "queue" {
					return true
				}
				tv, ok := info.Types[sel.X]
				if !ok {
					return true
				}
				named := namedOf(tv.Type)
				if named == nil || named.Obj().Name() != "Server" {
					return true
				}
				drain, deadline := guardsBefore(fd.Body, send.Pos())
				var missing []string
				if !drain {
					missing = append(missing, "a drain guard (draining / Draining())")
				}
				if !deadline {
					missing = append(missing, "a deadline check (expired / deadline)")
				}
				if len(missing) == 0 {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(send.Pos()),
					Rule: "waitleak",
					Message: fmt.Sprintf("send on %s.queue is not dominated by %s; admission must re-check draining and the request deadline, rejecting with 503 + Retry-After instead of queueing unboundedly",
						named.Obj().Name(), strings.Join(missing, " or ")),
				})
				return true
			})
		}
	}
	return diags
}

// guardsBefore scans the function body for drain and deadline guards that
// appear lexically before pos: a read of a draining field or a Draining()
// call, and an expired(...) call or a deadline field read.
func guardsBefore(body *ast.BlockStmt, pos token.Pos) (drain, deadline bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() >= pos {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			switch x.Sel.Name {
			case "draining":
				drain = true
			case "deadline":
				deadline = true
			}
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Draining":
					drain = true
				case "expired":
					deadline = true
				}
			}
		}
		return true
	})
	return drain, deadline
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
