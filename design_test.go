package adws

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inventoryPaths returns the paths DESIGN.md's "System inventory" table
// names: every backticked token in the first column of its rows.
func inventoryPaths(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## System inventory")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	code := regexp.MustCompile("`([^`]+)`")
	paths := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue // prose, the header row, or its rule
		}
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range code.FindAllStringSubmatch(first, -1) {
			paths[m[1]] = true
		}
	}
	if len(paths) == 0 {
		t.Fatal("the inventory table names no paths")
	}
	return paths
}

// TestDesignInventoryCoversTree keeps DESIGN.md's inventory in step with
// the tree: every package directory is named, and every named path exists.
func TestDesignInventoryCoversTree(t *testing.T) {
	named := inventoryPaths(t)
	for p := range named {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("DESIGN.md inventory names %s, which does not exist", p)
		}
	}
	for _, top := range []string{"bench", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || filepath.Ext(path) != ".go" {
				return nil
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !named[dir] {
				t.Errorf("package directory %s is missing from DESIGN.md's inventory", dir)
				named[dir] = true // report each directory once
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
