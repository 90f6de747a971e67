package hetgrid

import (
	"os"
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
