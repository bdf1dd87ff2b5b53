package analysis

import (
	"fmt"
	"go/ast"
)

// DivergenceRule flags MPI collective calls that are only reachable under a
// rank-dependent branch. Collectives are matched across every member of the
// communicator, so a collective that only some ranks reach leaves the
// arriving ranks blocked forever. Rank-local work (compute, packing) under
// a rank branch is the normal pattern and is not flagged.
var DivergenceRule = Rule{
	Name: "divergence",
	Doc:  "MPI collectives must not be guarded by rank-dependent conditions",
	Run:  runDivergence,
}

func runDivergence(p *Pass) []Diagnostic {
	info := p.Pkg.Info
	var diags []Diagnostic
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rd := newRankDep(p.Prog, info, fd.Body)

			// flag records every collective call under e when dep is true,
			// and recurses into nested function literals preserving dep.
			var checkStmt func(s ast.Stmt, dep bool)
			var scan func(n ast.Node, dep bool)
			scan = func(n ast.Node, dep bool) {
				if n == nil {
					return
				}
				ast.Inspect(n, func(m ast.Node) bool {
					switch x := m.(type) {
					case *ast.FuncLit:
						checkStmt(x.Body, dep)
						return false
					case *ast.CallExpr:
						if !dep {
							return true
						}
						fn := calleeFunc(info, x)
						if fn == nil {
							return true
						}
						t := targetOf(fn)
						if _, isColl := mpiCollectives[t]; isColl {
							diags = append(diags, Diagnostic{
								Pos:  p.Fset.Position(x.Pos()),
								Rule: "divergence",
								Message: fmt.Sprintf("collective %s is only reached under a rank-dependent condition; every rank of the communicator must call it",
									t.name),
							})
						} else if s := p.Prog.SummaryFor(fn); s != nil && s.Set.Has(EffCollective) {
							// Interprocedural: a helper that posts a
							// collective somewhere down its chain.
							diags = append(diags, Diagnostic{
								Pos:  p.Fset.Position(x.Pos()),
								Rule: "divergence",
								Message: fmt.Sprintf("call to %s reaches an MPI collective under a rank-dependent condition (%s); every rank of the communicator must call it",
									s.Key.Display(), callPath(p.Prog, s.Key, EffCollective)),
							})
						}
					}
					return true
				})
			}
			checkStmt = func(s ast.Stmt, dep bool) {
				switch st := s.(type) {
				case nil:
				case *ast.BlockStmt:
					for _, s2 := range st.List {
						checkStmt(s2, dep)
					}
				case *ast.IfStmt:
					checkStmt(st.Init, dep)
					scan(st.Cond, dep)
					d := dep || rd.dependent(st.Cond)
					checkStmt(st.Body, d)
					checkStmt(st.Else, d)
				case *ast.ForStmt:
					checkStmt(st.Init, dep)
					scan(st.Cond, dep)
					d := dep || rd.dependent(st.Cond)
					checkStmt(st.Post, d)
					checkStmt(st.Body, d)
				case *ast.RangeStmt:
					scan(st.X, dep)
					checkStmt(st.Body, dep || rd.dependent(st.X))
				case *ast.SwitchStmt:
					checkStmt(st.Init, dep)
					scan(st.Tag, dep)
					d := dep || (st.Tag != nil && rd.dependent(st.Tag))
					for _, c := range st.Body.List {
						cc := c.(*ast.CaseClause)
						dd := d
						for _, e := range cc.List {
							scan(e, dep)
							if rd.dependent(e) {
								dd = true
							}
						}
						for _, s2 := range cc.Body {
							checkStmt(s2, dd)
						}
					}
				case *ast.TypeSwitchStmt:
					checkStmt(st.Init, dep)
					checkStmt(st.Assign, dep)
					for _, c := range st.Body.List {
						for _, s2 := range c.(*ast.CaseClause).Body {
							checkStmt(s2, dep)
						}
					}
				case *ast.SelectStmt:
					for _, c := range st.Body.List {
						cc := c.(*ast.CommClause)
						checkStmt(cc.Comm, dep)
						for _, s2 := range cc.Body {
							checkStmt(s2, dep)
						}
					}
				case *ast.LabeledStmt:
					checkStmt(st.Stmt, dep)
				default:
					scan(s, dep)
				}
			}
			checkStmt(fd.Body, false)
		}
	}
	return diags
}
