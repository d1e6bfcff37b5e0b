package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestVerifyRefusesWhatOpenRefuses builds data dirs on disk and checks
// that Verify and Open judge them alike: every dir Open refuses, Verify
// refuses too; where both accept, Verify reports the LastSeq and TornTail
// recovery found. Verify may refuse more — a torn or stale file recovery
// passes over still fails it.
func TestVerifyRefusesWhatOpenRefuses(t *testing.T) {
	writeFile := func(t *testing.T, path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// journal fills dir through a Manager: events 1..n, a snapshot after
	// each seq in snapAt.
	journal := func(t *testing.T, dir string, n int, snapAt ...uint64) {
		t.Helper()
		m, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		for m.LastSeq() < uint64(n) {
			if _, err := m.Append(admitEv("t-x")); err != nil {
				t.Fatal(err)
			}
			for _, s := range snapAt {
				if s == m.LastSeq() {
					if err := m.WriteSnapshot(&PlacerState{Seq: s}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	evs := testEvents(7)
	cases := []struct {
		name string
		// build fills dir and returns the path Verify reads (dir or a file).
		build            func(t *testing.T, dir string) string
		openErr, checkOK bool // want Open to fail; want Verify to pass
	}{
		{"clean", func(t *testing.T, dir string) string {
			journal(t, dir, 6, 3, 5) // keeps both snapshots and the live segment
			return dir
		}, false, true},
		{"snapshot seq differs from its name", func(t *testing.T, dir string) string {
			if err := WriteSnapshotFile(filepath.Join(dir, seqName(snapPrefix, 10, snapSuffix)), &PlacerState{Seq: 5}); err != nil {
				t.Fatal(err)
			}
			return dir
		}, true, false},
		{"torn newest snapshot", func(t *testing.T, dir string) string {
			journal(t, dir, 7, 5)
			garbage := append(append([]byte{}, snapMagic[:]...), "torn mid write"...)
			writeFile(t, filepath.Join(dir, seqName(snapPrefix, 7, snapSuffix)), garbage)
			return dir
		}, false, false},
		{"torn tail in a non-last segment", func(t *testing.T, dir string) string {
			seg := rawWAL(t, evs[:2]...)
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 1, walSuffix)), seg[:len(seg)-3])
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 3, walSuffix)), rawWAL(t, evs[2:4]...))
			return dir
		}, true, false},
		{"corrupt segment the snapshot covers", func(t *testing.T, dir string) string {
			seg := rawWAL(t, evs[:5]...)
			seg[len(walMagic)+frameHeader+2] ^= 0x01
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 1, walSuffix)), seg)
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 6, walSuffix)), rawWAL(t, evs[5:]...))
			if err := WriteSnapshotFile(filepath.Join(dir, seqName(snapPrefix, 5, snapSuffix)), &PlacerState{Seq: 5}); err != nil {
				t.Fatal(err)
			}
			return dir
		}, false, false},
		{"seq gap between segments", func(t *testing.T, dir string) string {
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 1, walSuffix)), rawWAL(t, evs[:2]...))
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 5, walSuffix)), rawWAL(t, evs[4:6]...))
			return dir
		}, true, false},
		{"headerless last segment", func(t *testing.T, dir string) string {
			journal(t, dir, 2)
			writeFile(t, filepath.Join(dir, seqName(walPrefix, 3, walSuffix)), nil)
			return dir
		}, false, true},
		{"single .wal path", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, seqName(walPrefix, 1, walSuffix))
			writeFile(t, path, rawWAL(t, evs[:3]...))
			return path
		}, false, true},
		{"single .snap path", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, seqName(snapPrefix, 4, snapSuffix))
			if err := WriteSnapshotFile(path, &PlacerState{Seq: 4}); err != nil {
				t.Fatal(err)
			}
			return path
		}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.build(t, dir)
			// Verify first: it only reads, while Open truncates and rotates.
			res, verr := Verify(path)
			m, oerr := Open(dir, testOpts())
			if (oerr != nil) != tc.openErr {
				t.Fatalf("Open: %v, want error %v", oerr, tc.openErr)
			}
			if oerr != nil && verr == nil {
				t.Fatalf("Open refuses the dir (%v) but Verify passes it: %+v", oerr, res)
			}
			if (verr == nil) != tc.checkOK {
				t.Fatalf("Verify: %v, want pass %v", verr, tc.checkOK)
			}
			if oerr != nil {
				return
			}
			defer m.Close()
			if verr == nil && (res.LastSeq != m.LastSeq() || res.TornTail != m.Recovery().TornTail) {
				t.Fatalf("Verify reports last seq %d torn %v, Open recovered %d torn %v",
					res.LastSeq, res.TornTail, m.LastSeq(), m.Recovery().TornTail)
			}
		})
	}
}
