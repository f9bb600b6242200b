package qolsr_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"qolsr"
)

// TestReadmeIdentifiers keeps README.md's identifiers real: every qolsr.X it
// names is an export of this package, every ProtocolConfig.F or Config.F a
// field of qolsr.ProtocolConfig (olsr.Config), read by reflection, and
// every test, benchmark or fuzz target it cites as the witness of a claim
// is declared in some test file.
func TestReadmeIdentifiers(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	exports := rootExports(t)
	names := regexp.MustCompile(`\bqolsr\.(\w+)`).FindAllStringSubmatch(readme, -1)
	for _, m := range names {
		if !exports[m[1]] {
			t.Errorf("README names qolsr.%s, which the package does not export", m[1])
		}
	}

	fields := map[string]bool{}
	cfg := reflect.TypeFor[qolsr.ProtocolConfig]()
	for i := range cfg.NumField() {
		fields[cfg.Field(i).Name] = true
	}
	refs := regexp.MustCompile(`\b(?:ProtocolConfig|Config)\.(\w+)`).FindAllStringSubmatch(readme, -1)
	for _, m := range refs {
		if !fields[m[1]] {
			t.Errorf("README names Config.%s, which qolsr.ProtocolConfig does not have", m[1])
		}
	}

	tests := testFuncs(t)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`).FindAllString(readme, -1)
	for _, name := range cited {
		if !tests[name] {
			t.Errorf("README cites %s, which no test file declares", name)
		}
	}
	// A reader that finds nothing would pass any README.
	if len(names) < 20 || len(refs) < 5 || len(cited) < 40 {
		t.Errorf("README: %d qolsr.X, %d Config.F and %d test references found, want at least 20, 5 and 40", len(names), len(refs), len(cited))
	}
}

// rootExports returns the exported names of the package's non-test files.
func rootExports(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exportedNames(f) {
			exports[name] = true
		}
	}
	return exports
}

// testFuncs returns the names of the tests, benchmarks and fuzz targets
// declared in the repository's test files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
