package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: each case type-checks one or more testdata packages
// and runs one analyzer over them. Expectations live in the sources as
//
//	// want `regexp` `another regexp`
//
// comments: every diagnostic must be matched by a pattern on its line,
// and every pattern must match a diagnostic on its line. Packages under
// .../good/ carry no wants and must stay clean.
func TestAnalyzersGolden(t *testing.T) {
	// The hotpath and hotalloc analyzers share fixtures (both trigger on
	// //adws:hotpath roots), so their cases run both analyzers and the
	// want comments carry patterns for each.
	cases := []struct {
		name      string
		analyzers []string
		dirs      []string
	}{
		{"hotpath", []string{"hotpath", "hotalloc"}, []string{"hotpath/bad", "hotpath/good"}},
		{"evexhaustive", []string{"evexhaustive"}, []string{"evexhaustive/bad", "evexhaustive/good"}},
		{"lockedby", []string{"lockedby"}, []string{"lockedby/bad", "lockedby/good"}},
		{"lockorder", []string{"lockorder"}, []string{"lockorder/bad", "lockorder/good"}},
		{"hotalloc", []string{"hotalloc", "hotpath"}, []string{"hotalloc/bad", "hotalloc/good"}},
	}
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var as []*Analyzer
			for _, name := range tc.analyzers {
				a := byName[name]
				if a == nil {
					t.Fatalf("unknown analyzer %q", name)
				}
				as = append(as, a)
			}
			loader := NewTestLoader(root)
			dirs := make([]string, len(tc.dirs))
			for i, d := range tc.dirs {
				dirs[i] = filepath.Join(root, filepath.FromSlash(d))
			}
			u, err := loader.LoadDirs(dirs...)
			if err != nil {
				t.Fatal(err)
			}
			diags := u.Run(as)
			checkExpectations(t, dirs, diags)
		})
	}
}

// wantRE matches a want clause; patternRE extracts its backquoted regexps.
var (
	wantRE    = regexp.MustCompile(`//.*\bwant\b((?:\s*` + "`[^`]*`" + `)+)`)
	patternRE = regexp.MustCompile("`([^`]*)`")
)

// checkExpectations cross-checks diagnostics against the // want comments
// of every Go file under dirs.
func checkExpectations(t *testing.T, dirs []string, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				k := key{file: path, line: i + 1}
				for _, p := range patternRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(p[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, p[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		k := key{file: d.Pos.Filename, line: d.Pos.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// TestAllAnalyzersAcrossTestdata runs the full suite over every testdata
// package at once, proving analyzers neither crash on each other's cases
// nor double-report: the union of findings must still match the wants.
func TestAllAnalyzersAcrossTestdata(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, d := range []string{
		"hotpath/bad", "hotpath/good",
		"evexhaustive/bad", "evexhaustive/good",
		"lockedby/bad", "lockedby/good",
		"lockorder/bad", "lockorder/good",
		"hotalloc/bad", "hotalloc/good",
		"generics",
	} {
		dirs = append(dirs, filepath.Join(root, filepath.FromSlash(d)))
	}
	loader := NewTestLoader(root)
	u, err := loader.LoadDirs(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	checkExpectations(t, dirs, u.Run(nil))
}

// TestGenericsImporter pins the custom source importer against
// type-parameterized code: instantiations must type-check, Instances info
// must be populated, and the full suite must stay silent.
func TestGenericsImporter(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "generics")
	u, err := NewTestLoader(root).LoadDirs(dir)
	if err != nil {
		t.Fatalf("loading generics fixture: %v", err)
	}
	pkg := u.Targets[0]
	if len(pkg.Info.Instances) == 0 {
		t.Error("no generic instantiations recorded; importer lost Instances info")
	}
	if diags := u.Run(nil); len(diags) != 0 {
		t.Errorf("suite not clean on generics fixture: %v", diags)
	}
}

// TestDirectiveParsing pins the //adws: grammar corner cases.
func TestDirectiveParsing(t *testing.T) {
	loader := NewTestLoader(t.TempDir())
	dir := filepath.Join(loader.testRoot, "d")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `// Package d is a directive fixture.
package d

//adws:hotpath
func hot() {}

type s struct {
	a int //adws:locked(mu) guards a
	b int //adws:lockrank(3)
	c int // adws:ignored-with-space is not a directive
}
`
	if err := os.WriteFile(filepath.Join(dir, "d.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := loader.LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg := u.Targets[0]
	var got []string
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, d := range parseDirectives(g) {
				got = append(got, fmt.Sprintf("%s(%s)", d.name, d.args))
			}
		}
	}
	want := []string{"hotpath()", "locked(mu)", "lockrank(3)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("directives = %v, want %v", got, want)
	}
}
