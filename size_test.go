package tracon

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSizeRatchet holds ROADMAP aim 2's size criterion: each directory
// named in SIZE.ratchet ("<dir> <ceiling>" per line) may hold at most that
// many lines of non-test Go, counted as `wc -l` counts them. A ceiling is
// lowered by hand, in the PR that earns it; there is no update mode.
func TestSizeRatchet(t *testing.T) {
	ratchet, err := os.ReadFile("SIZE.ratchet")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(ratchet)), "\n") {
		var dir string
		var ceiling int
		if _, err := fmt.Sscanf(line, "%s %d", &dir, &ceiling); err != nil {
			t.Fatalf("SIZE.ratchet line %q: %v", line, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		t.Logf("%s: %d non-test lines, ceiling %d", dir, lines, ceiling)
		if lines > ceiling {
			t.Errorf("%s has %d non-test lines, over its SIZE.ratchet ceiling of %d", dir, lines, ceiling)
		}
	}
}
