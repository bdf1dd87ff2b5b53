package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// The simulated runtimes' calling contracts that need no analyzer rule:
// each is held by one mechanism that runs on every go test or go vet. The
// tests below are the static half; the runtime half lives with the
// runtimes (vtime's check that only the running process suspends, ompss's
// worker-wait check, the mpi rendezvous's deadlock report and strict tag
// checks). DESIGN.md §8.1 maps each former fftxvet rule to its
// enforcement; the three import-layering tests that replace a rule keep its
// name. A fourth, TestServingLinksNoSimulator, keeps the serving tier off
// the simulator, and TestSimulatorStartsNoGoroutine keeps goroutines and
// channels out of it.

var simulatedRuntimes = []string{"internal/mpi", "internal/vtime", "internal/ompss"}

// importsAny returns the first import of imports that is, or ends in, one
// of the given paths.
func importsAny(imports []string, paths []string) string {
	for _, imp := range imports {
		for _, p := range paths {
			if imp == p || strings.HasSuffix(imp, "/"+p) {
				return imp
			}
		}
	}
	return ""
}

// pkgImports is one package's import path and non-test imports.
type pkgImports struct {
	path    string
	imports []string
}

// modulePackages lists every package of the module with its imports (test
// files excluded).
func modulePackages(t *testing.T) []pkgImports {
	t.Helper()
	ldr := newTestLoader(t)
	dirs, err := ldr.Discover([]string{ldr.ModRoot() + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []pkgImports
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		pkgs = append(pkgs, pkgImports{ldr.importPath(dir), bp.Imports})
	}
	return pkgs
}

// mixedImports reports each package that imports both a simulated runtime
// and host, whose code runs on bare host goroutines with no place in the
// discrete-event schedule. Without a runtime import such code holds no
// runtime handle, so it cannot reach a running engine.
func mixedImports(pkgs []pkgImports, host string) []string {
	var bad []string
	for _, p := range pkgs {
		rt := importsAny(p.imports, simulatedRuntimes)
		if h := importsAny(p.imports, []string{host}); rt != "" && h != "" {
			bad = append(bad, fmt.Sprintf("%s imports both %s and %s", p.path, rt, h))
		}
	}
	return bad
}

// runtimeInGraph reports the simulated runtimes internal/fftx/graph imports,
// or an error if the package is not among pkgs.
func runtimeInGraph(pkgs []pkgImports) []string {
	for _, p := range pkgs {
		if strings.HasSuffix(p.path, "/internal/fftx/graph") {
			if rt := importsAny(p.imports, simulatedRuntimes); rt != "" {
				return []string{fmt.Sprintf("%s imports %s", p.path, rt)}
			}
			return nil
		}
	}
	return []string{"internal/fftx/graph not found"}
}

// checkLayering fails t for each violation find reports on the module, and
// if find misses the seeded violation.
func checkLayering(t *testing.T, find func([]pkgImports) []string, seeded pkgImports) {
	t.Helper()
	for _, v := range find(modulePackages(t)) {
		t.Error(v)
	}
	if len(find([]pkgImports{seeded})) == 0 {
		t.Errorf("seeded violation %s %v not reported", seeded.path, seeded.imports)
	}
}

// TestParBodyRule keeps the simulated runtimes out of par.ParallelFor
// bodies: no package imports both internal/par and mpi/vtime/ompss.
func TestParBodyRule(t *testing.T) {
	checkLayering(t, func(p []pkgImports) []string { return mixedImports(p, "internal/par") },
		pkgImports{"repro/seeded", []string{"repro/internal/par", "repro/internal/mpi"}})
}

// TestHandlerBodyRule keeps the simulated runtimes out of HTTP handlers:
// no package imports both net/http and mpi/vtime/ompss.
func TestHandlerBodyRule(t *testing.T) {
	checkLayering(t, func(p []pkgImports) []string { return mixedImports(p, "net/http") },
		pkgImports{"repro/seeded", []string{"net/http", "repro/internal/vtime"}})
}

// TestStagePureRule keeps graph.Stage closures runtime-free: they are data
// that every scheduler executes under its own policy, so
// internal/fftx/graph imports none of mpi/vtime/ompss; synchronization and
// accounting are the scheduler's job.
func TestStagePureRule(t *testing.T) {
	checkLayering(t, runtimeInGraph,
		pkgImports{"repro/internal/fftx/graph", []string{"repro/internal/knl", "repro/internal/ompss"}})
}

// servingRoots are the serving tier's packages: the fftxd daemon and what
// it is built from.
var servingRoots = []string{"internal/serve", "internal/cluster", "cmd/fftxd"}

// simulatorPackages are the packages of the simulated FFTXlib run.
var simulatorPackages = []string{
	"internal/fftx", "internal/fftx/graph", "internal/knl", "internal/pw", "internal/mpi",
	"internal/vtime", "internal/ompss", "internal/pop", "internal/core",
}

// simulatorInServing reports each serving root whose transitive imports
// within pkgs reach a simulator package, with the import chain that does.
func simulatorInServing(pkgs []pkgImports) []string {
	imports := map[string][]string{}
	for _, p := range pkgs {
		imports[p.path] = p.imports
	}
	var bad []string
	for _, p := range pkgs {
		if importsAny([]string{p.path}, servingRoots) == "" {
			continue
		}
		// Breadth-first over the import graph, remembering how each package
		// was reached.
		from := map[string]string{p.path: ""}
		queue := []string{p.path}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur != p.path && importsAny([]string{cur}, simulatorPackages) != "" {
				chain := cur
				for at := from[cur]; at != ""; at = from[at] {
					chain = at + " → " + chain
				}
				bad = append(bad, chain)
				continue
			}
			for _, imp := range imports[cur] {
				if _, seen := from[imp]; !seen {
					from[imp] = cur
					queue = append(queue, imp)
				}
			}
		}
	}
	return bad
}

// TestServingLinksNoSimulator keeps the serving tier free of the simulator:
// fftxd serves transforms on host time, and nothing it is built from reaches
// a package of the simulated run, directly or through another package.
func TestServingLinksNoSimulator(t *testing.T) {
	checkLayering(t, simulatorInServing,
		pkgImports{"repro/internal/serve", []string{"repro/internal/fft", "repro/internal/fftx"}})
}

// simulatorCore are the packages a simulated run executes.
var simulatorCore = []string{"internal/vtime", "internal/ompss", "internal/mpi", "internal/knl", "internal/fftx", "internal/fftx/graph"}

// concurrencySites reports each go statement and channel type in files.
func concurrencySites(fset *token.FileSet, files []*ast.File) []string {
	var bad []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				bad = append(bad, fmt.Sprintf("%s: go statement", fset.Position(n.Pos())))
			case *ast.ChanType:
				bad = append(bad, fmt.Sprintf("%s: channel type", fset.Position(n.Pos())))
			}
			return true
		})
	}
	return bad
}

// TestSimulatorStartsNoGoroutine: every simulated process is a state
// machine that vtime.Engine.Run calls on its caller's goroutine, so the
// non-test files of the simulator's packages hold no go statement and no
// channel type.
func TestSimulatorStartsNoGoroutine(t *testing.T) {
	root := newTestLoader(t).ModRoot()
	fset := token.NewFileSet()
	var files []*ast.File
	for _, pkg := range simulatorCore {
		dir := filepath.Join(root, pkg)
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	for _, v := range concurrencySites(fset, files) {
		t.Error(v)
	}
	seeded, err := parser.ParseFile(fset, "seeded.go", "package seeded\n\nfunc f(c chan int) { go f(c) }\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(concurrencySites(fset, []*ast.File{seeded})); n != 2 {
		t.Errorf("seeded file: %d sites reported, want 2", n)
	}
}

// TestHandleTypesCarryNoCopy pins the marker go vet's copylocks check keys
// on: every runtime handle type starts with a zero-size vtime.NoCopy field
// whose pointer has Lock and Unlock, so go vet reports a by-value copy.
func TestHandleTypesCarryNoCopy(t *testing.T) {
	marker := reflect.TypeOf(vtime.NoCopy{})
	if marker.Size() != 0 {
		t.Errorf("vtime.NoCopy has size %d, want 0", marker.Size())
	}
	for _, m := range []string{"Lock", "Unlock"} {
		if _, ok := reflect.PointerTo(marker).MethodByName(m); !ok {
			t.Errorf("*vtime.NoCopy has no %s method; go vet's copylocks check would ignore it", m)
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*vtime.Engine)(nil)).Elem(),
		reflect.TypeOf((*vtime.Proc)(nil)).Elem(),
		reflect.TypeOf((*vtime.Semaphore)(nil)).Elem(),
		reflect.TypeOf((*vtime.WaitQueue)(nil)).Elem(),
		reflect.TypeOf((*mpi.World)(nil)).Elem(),
		reflect.TypeOf((*mpi.Ctx)(nil)).Elem(),
		reflect.TypeOf((*mpi.Comm)(nil)).Elem(),
		reflect.TypeOf((*ompss.Runtime)(nil)).Elem(),
		reflect.TypeOf((*ompss.Group)(nil)).Elem(),
		reflect.TypeOf((*ompss.Task)(nil)).Elem(),
	} {
		if typ.NumField() == 0 || typ.Field(0).Type != marker {
			t.Errorf("%s does not start with a vtime.NoCopy field; go vet would not report copies of it", typ)
		}
	}
}
