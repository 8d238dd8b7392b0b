package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultsDir is the committed artifact directory `make figures` writes.
var resultsDir = filepath.Join("..", "..", "results")

// TestArtifactsMatchResults regenerates every artifact in process, as
// `make figures` does, and byte-compares each one's .txt and .csv with
// the committed file in results/. It also fails when a committed
// artifact file has no generator or a generator's file is not
// committed. results/lint.json is the lint report, not an artifact. An
// intended change to an artifact is `make figures` plus a commit.
func TestArtifactsMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration skipped in -short mode")
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Extensions()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]bool)
	for _, e := range entries {
		if name := e.Name(); name != "lint.json" {
			committed[name] = true
		}
	}
	for _, a := range append(all, ext...) {
		for _, out := range []struct{ name, body string }{
			{a.ID + ".txt", a.Text},
			{a.ID + ".csv", a.CSV},
		} {
			if !committed[out.name] {
				t.Errorf("results/%s is not committed (run make figures)", out.name)
				continue
			}
			delete(committed, out.name)
			want, err := os.ReadFile(filepath.Join(resultsDir, out.name))
			if err != nil {
				t.Fatal(err)
			}
			if line, ok := firstDiff(string(want), out.body); !ok {
				t.Errorf("results/%s differs from its regeneration at line %d", out.name, line)
			}
		}
	}
	for name := range committed {
		t.Errorf("results/%s has no generator in All or Extensions", name)
	}
}

// firstDiff reports whether a and b are equal and, if not, the first
// line (1-based) on which they differ.
func firstDiff(a, b string) (line int, equal bool) {
	if a == b {
		return 0, true
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1, false
		}
	}
	return min(len(al), len(bl)) + 1, false
}
