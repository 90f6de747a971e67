package hetgrid

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// computeLayer lists the packages that execute kernels: the dense block
// routines and their worker pool, the serial oracle, the distributed
// engine and the cluster simulator. The planner computes shares and
// layouts from cycle-times alone and needs none of them.
var computeLayer = []string{"internal/matrix", "internal/engine", "internal/kernels", "internal/sim"}

// TestPlannerDoesNotImportComputeLayer walks the non-test import closure of
// cmd/hetgridd, the plan service, inside the module and fails if it reaches
// a package of computeLayer (or one below it), naming the import chain.
// Every .go file counts whatever its build constraints, so the closure is
// the union over all platforms.
func TestPlannerDoesNotImportComputeLayer(t *testing.T) {
	const module = "hetgrid"
	fset := token.NewFileSet()
	from := map[string]string{"cmd/hetgridd": ""}
	queue := []string{"cmd/hetgridd"}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, banned := range computeLayer {
			if dir == banned || strings.HasPrefix(dir, banned+"/") {
				chain := dir
				for d := from[dir]; d != ""; d = from[d] {
					chain = d + " → " + chain
				}
				t.Errorf("the planner links the compute layer: %s", chain)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s has no Go files", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				dep, ok := strings.CutPrefix(p, module+"/")
				if p == module {
					dep, ok = ".", true // the facade
				}
				if !ok {
					continue
				}
				if _, seen := from[dep]; !seen {
					from[dep] = dir
					queue = append(queue, dep)
				}
			}
		}
	}
	if from["internal/plan"] == "" {
		t.Error("cmd/hetgridd's closure does not reach internal/plan: the walk is broken")
	}
}
