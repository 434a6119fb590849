package codelayout_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFuzzesEveryTarget: every func Fuzz in the module has a -fuzz line
// of its own in the CI workflow, naming the target and its package
// directory, so a new fuzz target cannot be left out of the fuzz step. A
// nested module (bench/) is not walked: the root's go test never reaches it.
func TestCIFuzzesEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzed := make(map[string]bool) // "./dir/ FuzzName"
	for _, m := range regexp.MustCompile(`(?m)^\s*go test .*-fuzz (Fuzz\w+) .*(\./\S+/)\s*$`).FindAllStringSubmatch(string(ci), -1) {
		fuzzed[m[2]+" "+m[1]] = true
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
		for _, m := range decl.FindAllSubmatch(src, -1) {
			targets++
			if !fuzzed[dir+" "+string(m[1])] {
				t.Errorf("%s: %s has no -fuzz line for %s in ci.yml", path, m[1], dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("no func Fuzz found in the tree")
	}
}
