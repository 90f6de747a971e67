package hetgrid

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestDocumentedTestsExist: every Test…, Benchmark… and Fuzz… name that
// README.md, DESIGN.md and EXPERIMENTS.md cite in backticks is a function
// of the module, so a renamed or deleted test cannot leave the
// documents pointing at nothing.
func TestDocumentedTestsExist(t *testing.T) {
	funcs := map[string]bool{}
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
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
