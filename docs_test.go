package hetgrid

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docPath matches a command or example directory as the documents name
// it: `./cmd/gridsim`, `examples/distributed`, or a brace list such as
// `cmd/{hetgrid,gridsim}`. A path that continues into a file
// (`examples/smoke_test.go`) is not a directory name and does not match.
var docPath = regexp.MustCompile(`(?:\./)?\b((?:cmd|examples)/(?:\{[\w,-]+\}|[\w-]+))(?:[^\w./-]|\.(?:\W|$)|$)`)

// TestDocumentedDirectoriesExist: every ./cmd/<dir> and ./examples/<dir>
// that README.md and DESIGN.md name is a directory of the module, so a
// removed command or example cannot leave a dangling `go run` line.
func TestDocumentedDirectoriesExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, m := range docPath.FindAllStringSubmatch(string(blob), -1) {
			parent, name, _ := strings.Cut(m[1], "/")
			for _, dir := range strings.Split(strings.Trim(name, "{}"), ",") {
				named++
				if st, err := os.Stat(parent + "/" + dir); err != nil || !st.IsDir() {
					t.Errorf("%s names %s/%s, which is not a directory of the module", doc, parent, dir)
				}
			}
		}
		if named == 0 {
			t.Errorf("%s names no cmd/ or examples/ directory; the pattern no longer reads it", doc)
		}
	}
}

// docTest matches a backticked test, benchmark or fuzz name as the
// documents cite it: alone, package-qualified (`kernels.TestFactorGolden`),
// with a subtest path (`TestConformance/crash/…`), or with a brace list
// (`BenchmarkDistributed{MM,LU,Cholesky,QR}`).
var docTest = regexp.MustCompile("`(?:\\w+\\.)?((?:Test|Benchmark|Fuzz)[A-Z_][\\w{},]*)(?:/[^`]*)?`")

// moduleDecls parses every Go file of the module — not bench/, which is
// its own module — and returns the names of its top-level functions, test
// files included, and, per package name, the top-level declarations of the
// package's non-test files. The root package is hetgrid; commands (main)
// and internal/engine/net, which shares the standard library's name, are
// left out of the second map.
func moduleDecls(t *testing.T) (funcs map[string]bool, pkgs map[string]map[string]bool) {
	t.Helper()
	funcs, pkgs = map[string]bool{}, map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." {
			// Hidden directories and nested modules (bench/) are not the
			// module's.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A test file's declarations go to a throwaway set.
		decls := map[string]bool{}
		if pkg := f.Name.Name; !strings.HasSuffix(path, "_test.go") && pkg != "main" && pkg != "net" {
			if pkgs[pkg] == nil {
				pkgs[pkg] = map[string]bool{}
			}
			decls = pkgs[pkg]
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[d.Name.Name] = true
					decls[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						decls[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							decls[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, pkgs
}

// TestDocumentedTestsExist: every Test…, Benchmark… and Fuzz… name that
// README.md, DESIGN.md and EXPERIMENTS.md cite in backticks is a function
// of the module, so a renamed or deleted test cannot leave the
// documents pointing at nothing.
func TestDocumentedTestsExist(t *testing.T) {
	funcs, _ := moduleDecls(t)
	named := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docTest.FindAllStringSubmatch(string(blob), -1) {
			for _, name := range expandBraces(m[1]) {
				named++
				if !funcs[name] {
					t.Errorf("%s names %s, which is no function of the module", doc, name)
				}
			}
		}
	}
	if named == 0 {
		t.Error("the documents name no test; the pattern no longer reads them")
	}
}

// TestDocumentedSymbolsExist: every backticked `pkg.Symbol` that README.md
// and DESIGN.md cite, pkg a package of the module, is a top-level
// declaration of that package's non-test files, so a deleted or renamed
// symbol cannot leave the documents pointing at nothing. The citation may
// go on (`engine.Options.Parallelism`, `obs.Gantt(spans, …)`); only the
// first name is resolved. A brace list expands (`kernels.Simulate{MM,LU}`),
// a trailing * is a prefix (`kernels.Replay*`), and two forms are not
// symbols: a file name (`kernels.go`) and a per-layer metric of
// BENCHMARK.json (`core.prune_ratio`).
func TestDocumentedSymbolsExist(t *testing.T) {
	_, pkgs := moduleDecls(t)
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{}
	for _, m := range bench.PerLayer {
		skip[m.Name] = true
	}
	names := make([]string, 0, len(pkgs))
	for pkg := range pkgs {
		names = append(names, regexp.QuoteMeta(pkg))
	}
	sym := regexp.MustCompile("`(" + strings.Join(names, "|") + `)\.([A-Za-z_]\w*(?:\{[\w,]*\}\w*)?)(\*)?`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, m := range sym.FindAllStringSubmatch(string(blob), -1) {
			pkg, name, prefix := m[1], m[2], m[3] == "*"
			if name == "go" || skip[pkg+"."+name] {
				continue
			}
			named++
			decls := pkgs[pkg]
			if prefix {
				found := false
				for d := range decls {
					found = found || strings.HasPrefix(d, name)
				}
				if !found {
					t.Errorf("%s names %s.%s*, and %s declares no such name", doc, pkg, name, pkg)
				}
				continue
			}
			for _, n := range expandBraces(name) {
				if !decls[n] {
					t.Errorf("%s names %s.%s, which is no top-level declaration of %s", doc, pkg, n, pkg)
				}
			}
		}
		if named == 0 {
			t.Errorf("%s names no symbol of the module; the pattern no longer reads it", doc)
		}
		t.Logf("%s: %d symbols", doc, named)
	}
}

// ciRun matches the quoted -run pattern of a go test line in the CI
// workflow.
var ciRun = regexp.MustCompile(`-run[ =]'([^']*)'`)

// TestCIRunPatternsNameTests: every -run pattern of
// .github/workflows/ci.yml selects at least one test of the module at its
// top level, alternative by alternative. `go test -run 'X$'` passes with
// "no tests to run" when nothing matches, so a renamed test would
// otherwise drop out of CI's repeated runs without a sound. The pattern
// '^$', which selects nothing on purpose, is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	funcs, _ := moduleDecls(t)
	var tests []string
	for name := range funcs {
		if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") || strings.HasPrefix(name, "Example") {
			tests = append(tests, name)
		}
	}
	blob, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	patterns := ciRun.FindAllStringSubmatch(string(blob), -1)
	if len(patterns) == 0 {
		t.Fatal("ci.yml has no -run pattern; the pattern no longer reads it")
	}
	for _, m := range patterns {
		if m[1] == "^$" {
			continue
		}
		for _, alt := range splitTop(splitTop(m[1], '/')[0], '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("ci.yml -run '%s': %v", m[1], err)
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("ci.yml -run '%s': %q selects no test of the module", m[1], alt)
			}
		}
	}
}

// splitTop splits a regular expression at each sep outside parentheses and
// brackets, as go test splits a -run pattern into its levels at '/'.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// expandBraces expands one brace list: "A{B,C}D" is ABD and ACD.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	list, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(list, ",") {
		out = append(out, pre+alt+post)
	}
	return out
}
