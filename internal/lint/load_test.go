package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestLoaderResolvesModulePackages(t *testing.T) {
	l := testLoader(t)
	if l.Module != "repro" {
		t.Fatalf("module = %q, want repro", l.Module)
	}
	pkgs, err := l.Load("./internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/trace" {
		t.Fatalf("pkgs = %v", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Event") == nil {
		t.Fatal("trace package not type-checked")
	}
}

func TestLoadRecursiveSkipsTestdata(t *testing.T) {
	pkgs, err := testLoader(t).Load("./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("recursive load descended into %s", p.Path)
		}
	}
	if len(paths) == 0 {
		t.Fatal("no packages loaded")
	}
}

// TestWalkDirsPrunesNestedModules: a subdirectory with its own go.mod is
// another module, which "./..." leaves out as the go command does; the
// start directory is walked even when it is a module root itself.
func TestWalkDirsPrunesNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"a", "a/b", "nested", "nested/c"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, mod := range []string{"go.mod", "nested/go.mod"} {
		if err := os.WriteFile(filepath.Join(root, mod), []byte("module m\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for start, want := range map[string][]string{
		"":       {"", "a", "a/b"},
		"nested": {"nested", "nested/c"},
	} {
		dirs, err := walkDirs(filepath.Join(root, start))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range dirs {
			rel, err := filepath.Rel(root, d)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, strings.TrimPrefix(filepath.ToSlash(rel), "."))
		}
		if !slices.Equal(got, want) {
			t.Errorf("walkDirs(%q) = %q, want %q", start, got, want)
		}
	}
}

// TestFixturePackageHasFindings pins the acceptance contract: pointing
// repolint at the on-disk fixture package produces findings, so the CLI
// exits non-zero against it while "./..." stays clean.
func TestFixturePackageHasFindings(t *testing.T) {
	pkgs, err := testLoader(t).Load("./internal/lint/testdata/...")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, Analyzers())
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range []string{
		"errcheck", "exhaustive-kind", "determinism", "tracecheck",
		"hotalloc", "locksafe", "goexit", "ctxflow",
	} {
		if byAnalyzer[a] == 0 {
			t.Errorf("fixture package produced no %s findings (got %v)", a, byAnalyzer)
		}
	}
}

func TestBuildTagFiltering(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"package x\n", true},
		{"//go:build repro_sanitize\n\npackage x\n", false},
		{"//go:build !repro_sanitize\n\npackage x\n", true},
		{"//go:build " + runtime.GOOS + "\n\npackage x\n", true},
		{"//go:build ignore\n\npackage x\n", false},
	}
	for _, tc := range cases {
		if got := buildableSource(tc.src); got != tc.want {
			t.Errorf("buildableSource(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestLoadUnknownDirectoryFails(t *testing.T) {
	if _, err := testLoader(t).Load("./no/such/dir"); err == nil {
		t.Fatal("expected error for missing directory")
	}
}
