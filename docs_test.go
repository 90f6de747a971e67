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

// docPath matches a command, example or internal package directory as the
// documents name it: `./cmd/gridsim`, `examples/distributed`,
// `internal/engine/net`, or a brace list such as `cmd/{hetgrid,gridsim}`.
// A path that continues into a file (`examples/smoke_test.go`) is not a
// directory name and does not match. A dated record citing a removed
// directory appends the marker " (deleted in PR N)" to the backticked
// path; group 2 is the marker.
var docPath = regexp.MustCompile(`(?:\./)?\b((?:cmd|examples|internal)(?:/[\w-]+)*/(?:\{[\w,-]+\}|[\w-]+))` +
	"(?:`( \\(deleted in PR \\d+\\))|[^\\w./-]|\\.(?:\\W|$)|$)")

// TestDocumentedDirectoriesExist: every ./cmd/<dir>, ./examples/<dir> and
// internal/<dir> that README.md, DESIGN.md and EXPERIMENTS.md name is a
// directory of the module, so a removed command, example or package cannot
// leave a dangling `go run` or `go test` line. A directory marked deleted
// must be gone.
func TestDocumentedDirectoriesExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, m := range docPath.FindAllStringSubmatch(string(blob), -1) {
			cut := strings.LastIndex(m[1], "/")
			parent, name, deleted := m[1][:cut], m[1][cut+1:], m[2] != ""
			for _, dir := range strings.Split(strings.Trim(name, "{}"), ",") {
				named++
				st, err := os.Stat(parent + "/" + dir)
				switch exists := err == nil && st.IsDir(); {
				case deleted && exists:
					t.Errorf("%s marks %s/%s deleted, and it is still a directory of the module", doc, parent, dir)
				case !deleted && !exists:
					t.Errorf("%s names %s/%s, which is not a directory of the module", doc, parent, dir)
				}
			}
		}
		if named == 0 {
			t.Errorf("%s names no cmd/, examples/ or internal/ directory; the pattern no longer reads it", doc)
		}
	}
}

// docTest matches a backticked test, benchmark or fuzz name as the
// documents cite it: alone, package-qualified (`kernels.TestFactorGolden`),
// with a subtest path (`TestConformance/crash/…`), or with a brace list
// (`BenchmarkDistributed{MM,LU,Cholesky,QR}`).
var docTest = regexp.MustCompile("`(?:\\w+\\.)?((?:Test|Benchmark|Fuzz)[A-Z_][\\w{},]*)(?:/[^`]*)?`")

// testFunc matches the name of a test, benchmark, fuzz target or example.
var testFunc = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)([A-Z_]|$)`)

// moduleDecls parses every Go file of the module — not bench/, which is
// its own module — and returns the names of its top-level functions, test
// files included, and, per package name, the top-level declarations of the
// package's non-test files plus the test functions of its test files (an
// external pkg_test package counts as pkg). The root package is hetgrid;
// commands (main) and internal/engine/net, which shares the standard
// library's name, are left out of the second map.
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
		// A test file's declarations go to a throwaway set, but for its
		// test functions.
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		isTest := strings.HasSuffix(path, "_test.go")
		decls := map[string]bool{}
		if pkg != "main" && pkg != "net" {
			if pkgs[pkg] == nil {
				pkgs[pkg] = map[string]bool{}
			}
			if !isTest {
				decls = pkgs[pkg]
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[d.Name.Name] = true
					decls[d.Name.Name] = true
					if isTest && pkgs[pkg] != nil && testFunc.MatchString(d.Name.Name) {
						pkgs[pkg][d.Name.Name] = true
					}
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

// TestDocumentedSymbolsExist: every backticked `pkg.Symbol` that README.md,
// DESIGN.md and EXPERIMENTS.md cite, pkg a package of the module, is a
// top-level declaration of that package's non-test files or a test
// function of its test files (`kernels.TestFactorGolden`), so a deleted or
// renamed symbol cannot leave the documents pointing at nothing. The
// citation may go on (`engine.Options.Parallelism`, `obs.Gantt(spans, …)`);
// only the first name is resolved. A brace list expands
// (`kernels.Simulate{MM,LU}`), a trailing * is a prefix (`kernels.Replay*`),
// and two forms are not symbols: a file name (`kernels.go`) and a per-layer
// metric of BENCHMARK.json (`core.prune_ratio`). A dated record may cite a
// symbol that is gone only with the marker " (deleted in PR N)" right after
// the citation's closing backtick; a marked symbol that is still declared
// fails too.
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
	sym := regexp.MustCompile("`(" + strings.Join(names, "|") + `)\.([A-Za-z_]\w*(?:\{[\w,]*\}\w*)?)(\*)?[^` + "`]*`" + `( \(deleted in PR \d+\))?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named, marked := 0, 0
		for _, m := range sym.FindAllStringSubmatch(string(blob), -1) {
			pkg, name, prefix, deleted := m[1], m[2], m[3] == "*", m[4] != ""
			if name == "go" || skip[pkg+"."+name] {
				continue
			}
			named++
			if deleted {
				marked++
			}
			decls := pkgs[pkg]
			var missing []string
			if prefix {
				found := false
				for d := range decls {
					found = found || strings.HasPrefix(d, name)
				}
				if !found {
					missing = append(missing, name+"*")
				}
			} else {
				for _, n := range expandBraces(name) {
					if !decls[n] {
						missing = append(missing, n)
					}
				}
			}
			switch {
			case deleted && len(missing) == 0:
				t.Errorf("%s marks %s.%s deleted, and %s still declares it", doc, pkg, m[2]+m[3], pkg)
			case !deleted:
				for _, n := range missing {
					t.Errorf("%s names %s.%s, which is no top-level declaration or test of %s", doc, pkg, n, pkg)
				}
			}
		}
		if named == 0 {
			t.Errorf("%s names no symbol of the module; the pattern no longer reads it", doc)
		}
		t.Logf("%s: %d symbols, %d marked deleted", doc, named, marked)
	}
}

// ciRun matches the quoted -run pattern of a go test line in the CI
// workflow.
var ciRun = regexp.MustCompile(`-run[ =]'([^']*)'`)

// ciFuzz matches a go test line of the CI workflow that fuzzes: its -fuzz
// pattern and the package path at the end of the line.
var ciFuzz = regexp.MustCompile(`-fuzz[ =](\S+).*\s(\.\S*)\s*$`)

// TestCIRunPatternsNameTests: every -run pattern of
// .github/workflows/ci.yml selects at least one test of the module at its
// top level, alternative by alternative, and every -fuzz pattern matches
// exactly one fuzz target of the package on its line. `go test -run 'X$'`
// passes with "no tests to run" when nothing matches, and `go test -fuzz=X`
// with "no fuzz tests to fuzz", so a renamed test would otherwise drop out
// of CI's repeated runs or fuzz steps without a sound. The -run pattern
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
	fuzzSteps := 0
	for _, line := range strings.Split(string(blob), "\n") {
		m := ciFuzz.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		fuzzSteps++
		re, err := regexp.Compile(strings.Trim(m[1], `'"`))
		if err != nil {
			t.Fatalf("ci.yml -fuzz=%s: %v", m[1], err)
		}
		var hits []string
		for _, name := range fuzzTargets(t, m[2]) {
			if re.MatchString(name) {
				hits = append(hits, name)
			}
		}
		if len(hits) != 1 {
			t.Errorf("ci.yml -fuzz=%s %s: matches the fuzz targets %v of %s, want exactly one", m[1], m[2], hits, m[2])
		}
	}
	if fuzzSteps == 0 {
		t.Fatal("ci.yml has no -fuzz step; the pattern no longer reads it")
	}
}

// fuzzTargets returns the names of the fuzz targets declared in the test
// files of the package directory dir.
func fuzzTargets(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && strings.HasPrefix(d.Name.Name, "Fuzz") {
				names = append(names, d.Name.Name)
			}
		}
	}
	return names
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
