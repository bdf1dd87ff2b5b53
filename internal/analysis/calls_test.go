package analysis

import (
	"go/ast"
	"path/filepath"
	"testing"
)

// TestCalleeResolution pins calleeFunc/keyOf behaviour on the resolution
// edge cases the call graph depends on: embedded-field promotion, type
// aliases, instantiated generics (explicit and inferred), and the two
// dynamic shapes (method values, method-expression values) that must
// resolve to nothing rather than to a wrong edge.
func TestCalleeResolution(t *testing.T) {
	ldr := newTestLoader(t)
	pkg, err := ldr.Load(filepath.Join("testdata", "callees"))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("testdata/callees does not type-check: %v", terr)
	}

	var body *ast.BlockStmt
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "useAll" {
				body = fd.Body
			}
		}
	}
	if body == nil {
		t.Fatal("useAll not found")
	}

	// Expected resolution per call expression of useAll, in source order.
	// Empty key = the call must NOT resolve (dynamic call through a
	// function-typed variable).
	want := []FuncKey{
		{Pkg: pkg.Path, Recv: "Inner", Name: "Ping"}, // o.Ping()
		{Pkg: pkg.Path, Recv: "Inner", Name: "Ping"}, // a.Ping() via alias
		{Pkg: pkg.Path, Name: "Generic"},             // Generic[int](1)
		{Pkg: pkg.Path, Name: "Generic"},             // Generic("s")
		{},                                           // f() method value
		{},                                           // g(Inner{}) method-expression value
		{Pkg: pkg.Path, Recv: "Inner", Name: "Ping"}, // Inner.Ping(Inner{})
	}

	var got []FuncKey
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil {
			got = append(got, keyOf(fn))
		} else {
			got = append(got, FuncKey{})
		}
		return true
	})

	if len(got) != len(want) {
		t.Fatalf("found %d call expressions, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d resolved to %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSummaryPath pins the allocation-summary fixpoint and path rendering
// on the hotalloc testdata's two-level helper chain (scratch -> grow ->
// make) and on a helper whose summary must stay clean.
func TestSummaryPath(t *testing.T) {
	ldr := newTestLoader(t)
	pkg, err := ldr.Load(filepath.Join("testdata", "hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(ldr, []*Package{pkg})

	scratch := FuncKey{Pkg: pkg.Path, Name: "scratch"}
	if s := prog.sums[scratch]; s == nil || !s.Allocates {
		t.Fatalf("scratch summary = %+v, want allocating", s)
	}
	if got := prog.allocPath(scratch); got != "hotalloc.scratch → hotalloc.grow → make([]complex128)" {
		t.Errorf("allocPath(scratch) = %q", got)
	}

	pure := prog.sums[FuncKey{Pkg: pkg.Path, Name: "pureHelper"}]
	if pure == nil {
		t.Fatal("no summary for pureHelper")
	}
	if pure.Allocates {
		t.Errorf("pureHelper must not allocate, got origin %q", pure.origin.desc)
	}
}
