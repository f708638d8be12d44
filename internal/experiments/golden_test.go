package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden-0.02.txt from the current output")

// goldenPath holds the rendered output of every registered experiment at
// scale 0.02, byte-identical to `sfbench -all -scale 0.02`.
var goldenPath = filepath.Join("testdata", "golden-0.02.txt")

// TestGolden pins every experiment's output.  Every modeled number is a
// function of the workload alone, so the output must match byte for byte
// on any host, at any GOMAXPROCS and on every run.  A change that moves
// an experiment on purpose regenerates the file with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and says which experiments moved and why.
func TestGolden(t *testing.T) {
	results, err := RunAll(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, res := range results {
		out.WriteString(res.Render())
		out.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := goldenSections(out.String()), goldenSections(string(want))
	for _, id := range IDs() {
		if got[id] != exp[id] {
			t.Errorf("experiment %s differs from %s:\n--- want\n%s--- got\n%s", id, goldenPath, exp[id], got[id])
		}
	}
	if !t.Failed() {
		t.Errorf("output differs from %s outside any experiment section", goldenPath)
	}
}

// goldenSections splits rendered output into per-experiment sections,
// keyed by the id that opens each one.
func goldenSections(s string) map[string]string {
	out := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if head, _, ok := strings.Cut(line, " — "); ok && !strings.Contains(head, " ") {
			if _, known := registry[head]; known {
				id = head
			}
		}
		out[id] += line
	}
	return out
}
