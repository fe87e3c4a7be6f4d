package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// oldStyle is a trajectory file from before rows carried a detection: the
// detection sat at file level and every row is a baseline row.
const oldStyle = `{"scale":"tiny","seed":1,"detection":"baseline","workloads":[
 {"name":"kmeans","nsPerOp":100,"allocsPerOp":40,"bytesPerOp":2000,"simCycles":287328}]}`

func TestDiffKeysRowsByDetection(t *testing.T) {
	oldPath := writeFile(t, "old.json", oldStyle)
	cur := `{"scale":"tiny","seed":1,"workloads":[
 {"name":"kmeans","detection":"baseline","nsPerOp":90,"allocsPerOp":30,"bytesPerOp":1900,"simCycles":287328},
 {"name":"kmeans","detection":"subblock-4","nsPerOp":90,"allocsPerOp":30,"bytesPerOp":1900,"simCycles":1}]}`
	newPath := writeFile(t, "new.json", cur)
	if err := diffFiles(oldPath, newPath, 1.4, 1.4); err != nil {
		t.Fatalf("old-style baseline row did not match the new baseline row: %v", err)
	}

	// Against itself the subblock-4 row is gated too: a simCycles change
	// there fails even though the baseline row is untouched.
	drift := strings.Replace(cur, `"simCycles":1}`, `"simCycles":2}`, 1)
	err := diffFiles(newPath, writeFile(t, "drift.json", drift), 1.4, 1.4)
	if err == nil || !strings.Contains(err.Error(), "1 regression") {
		t.Fatalf("subblock-4 simCycles drift: got %v, want one regression", err)
	}

	// A baseline row that disappeared is a regression.
	if err := diffFiles(newPath, oldPath, 1.4, 1.4); err == nil {
		t.Fatal("a missing subblock-4 row passed the diff")
	}
}
