package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tab := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"x,y", "z"}},
	}
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma not quoted: %q", out)
	}
}

func TestWriteRejectsRaggedRows(t *testing.T) {
	var buf bytes.Buffer
	tab := Table{Header: []string{"a", "b"}, Rows: [][]string{{"only-one"}}}
	if err := WriteCSV(&buf, tab); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSaveCreatesDirectories(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deep", "out.csv")
	tab := Table{Header: []string{"v"}, Rows: [][]string{{cellF(1.5)}, {cellI(7)}}}
	if err := SaveCSV(path, tab); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "v\n1.5\n7\n"
	if string(data) != want {
		t.Fatalf("file = %q want %q", data, want)
	}
}

func TestFormatters(t *testing.T) {
	if cellF(0.125) != "0.125" {
		t.Fatalf("cellF = %q", cellF(0.125))
	}
	if cellI(-3) != "-3" {
		t.Fatalf("cellI = %q", cellI(-3))
	}
}
