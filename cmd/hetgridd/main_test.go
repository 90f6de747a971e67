package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// section returns the part of the markdown file at path from the line
// starting with from up to the next line starting with until.
func section(t *testing.T, path, from, until string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := "\n" + string(blob)
	start := strings.Index(doc, "\n"+from)
	if start < 0 {
		t.Fatalf("%s: no line starts with %q", path, from)
	}
	rest := doc[start+1:]
	end := strings.Index(rest, "\n"+until)
	if end < 0 {
		t.Fatalf("%s: no line starts with %q after %q", path, until, from)
	}
	return rest[:end]
}

// backtickedFlag matches `-name` and `-name value` in markdown prose.
var backtickedFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)(?: [^`]*)?`")

// TestReadmeFlagsMatchFlagSet: the documents may only name flags hetgridd
// registers, and README.md's hetgridd section names every one of them.
func TestReadmeFlagsMatchFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("hetgridd", flag.ContinueOnError)
	registerFlags(fs)

	// named collects the flags text names, reporting unregistered ones.
	named := func(doc, text string) map[string]bool {
		names := map[string]bool{}
		for _, m := range backtickedFlag.FindAllStringSubmatch(text, -1) {
			names[m[1]] = true
			if fs.Lookup(m[1]) == nil {
				t.Errorf("%s names `-%s`, which hetgridd does not register", doc, m[1])
			}
		}
		return names
	}
	readme := named("README.md", section(t, "../../README.md", "### Planning as a service (hetgridd)", "## "))
	named("DESIGN.md §11–12", section(t, "../../DESIGN.md", "## 11. ", "## 13. "))
	fs.VisitAll(func(f *flag.Flag) {
		if !readme[f.Name] {
			t.Errorf("hetgridd registers -%s, which README.md's hetgridd section does not list", f.Name)
		}
	})
}
