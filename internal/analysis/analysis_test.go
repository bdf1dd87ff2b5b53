package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the expected-diagnostic convention used in testdata:
// a trailing comment of the form `// want "substring"` on the offending
// line. Each diagnostic must match exactly one want on its line, and every
// want must be claimed by a diagnostic.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	ldr, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return ldr
}

type wantDiag struct {
	file    string
	line    int
	substr  string
	matched bool
}

// runRuleTest loads testdata/<dir>, runs one rule, and checks the produced
// diagnostics against the want comments in both directions.
func runRuleTest(t *testing.T, dir string, rule Rule) {
	t.Helper()
	ldr := newTestLoader(t)
	pkg, err := ldr.Load(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("load testdata/%s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("testdata/%s does not type-check: %v", dir, terr)
	}
	if t.Failed() {
		t.FailNow()
	}

	var wants []*wantDiag
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := ldr.Fset.Position(c.Pos())
				wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, substr: m[1]})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("testdata/%s has no want comments", dir)
	}

	diags := RunRules(ldr.Fset, pkg, []Rule{rule})
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				strings.Contains(d.Message, w.substr) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestWaitLeakRule(t *testing.T) { runRuleTest(t, "waitleak", WaitLeakRule) }

// TestModuleClean is the dogfooding gate: every package in the module must
// pass every rule with zero findings.
func TestModuleClean(t *testing.T) {
	ldr := newTestLoader(t)
	dirs, err := ldr.Discover([]string{ldr.ModRoot() + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages discovered")
	}
	for _, dir := range dirs {
		pkg, err := ldr.Load(dir)
		if err != nil {
			t.Errorf("load %s: %v", dir, err)
			continue
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", dir, terr)
		}
		for _, d := range RunRules(ldr.Fset, pkg, AllRules()) {
			t.Errorf("finding in clean tree: %s", d)
		}
	}
}
