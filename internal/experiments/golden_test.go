package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var exhibitsUpdate = flag.String("exhibits-update", "",
	"rewrite testdata/exhibits_sha256.golden from this run; the value is the reason recorded beside every hash that changes (a deliberate behaviour change only)")

// exhibitsGolden holds one "name sha256 reason…" line per tabular exhibit
// of the quick evaluation grid at seed 1.
const exhibitsGolden = "testdata/exhibits_sha256.golden"

// TestExhibitsGolden pins every exhibit the quick evaluation grid produces
// (`traconbench -quick`, seed 1): each exhibit's CSV is hashed, so a change
// in any simulated or predicted number that survives the CSV's six
// significant digits changes a hash. Simulator and scheduler refactors
// that claim "bit for bit" are checked against it unchanged. Regenerate
// the file only for a change meant to alter results, with
// -exhibits-update="why"; the reason is written beside each changed hash.
func TestExhibitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick grid")
	}
	e := testEnv(t)
	var names []string
	got := map[string]string{}
	for _, oc := range (Runner{Workers: 2}).Run(e, Suite(DefaultSuiteOptions(true))) {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Name, oc.Err)
		}
		tab, ok := oc.Result.(Tabular)
		if !ok {
			continue
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab.Table()); err != nil {
			t.Fatal(err)
		}
		names = append(names, oc.Name)
		got[oc.Name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}

	want := map[string][2]string{} // name → (hash, reason)
	raw, err := os.ReadFile(exhibitsGolden)
	if err != nil && *exhibitsUpdate == "" {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.SplitN(line, " ", 3); len(f) == 3 {
			want[f[0]] = [2]string{f[1], f[2]}
		}
	}

	if *exhibitsUpdate != "" {
		var out strings.Builder
		for _, name := range names {
			reason := *exhibitsUpdate
			if w, ok := want[name]; ok && w[0] == got[name] {
				reason = w[1]
			}
			fmt.Fprintf(&out, "%s %s %s\n", name, got[name], reason)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exhibitsGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(names) {
		t.Errorf("%s lists %d exhibits, the grid produced %d", exhibitsGolden, len(want), len(names))
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("exhibit %s has no hash in %s", name, exhibitsGolden)
		} else if w[0] != got[name] {
			t.Errorf("exhibit %s: CSV hash %s, golden %s (%s)", name, got[name], w[0], w[1])
		}
	}
}
