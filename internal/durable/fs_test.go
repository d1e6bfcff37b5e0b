package durable

import (
	"errors"
	"io"
	"io/fs"
	"testing"
)

// LastSeq returns the newest sequence number the recovered state covers.
func (r RecoveryInfo) LastSeq() uint64 {
	if n := len(r.Events); n > 0 {
		return r.Events[n-1].Seq
	}
	if r.Snapshot != nil {
		return r.Snapshot.Seq
	}
	return 0
}

func readAllMem(t *testing.T, m *MemFS, name string) []byte {
	t.Helper()
	r, err := m.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func TestMemFSCrashDropsUnsyncedSuffix(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" lost")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := string(readAllMem(t, m, "d/a")); got != "durable" {
		t.Fatalf("post-crash content = %q, want %q", got, "durable")
	}
	// The pre-crash handle is orphaned: its writes must not reach the
	// recovered incarnation.
	if _, err := f.Write([]byte("ghost")); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	if got := string(readAllMem(t, m, "d/a")); got != "durable" {
		t.Fatalf("orphan handle leaked into recovered file: %q", got)
	}
}

func TestMemFSCrashDropsUnsyncedDirEntry(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	f, _ := m.Create("d/never-synced-dir", true)
	f.Write([]byte("x"))
	f.Sync() // content synced, but the directory entry never was
	if lost := m.Crash(); lost != 1 {
		t.Fatalf("Crash lost %d files, want 1", lost)
	}
	if _, err := m.Open("d/never-synced-dir"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unsynced dir entry survived the crash: err=%v", err)
	}
}

func TestMemFSRenameNeedsDirSync(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	f, _ := m.Create("d/a.tmp", true)
	f.Write([]byte("snap"))
	f.Sync()
	m.SyncDir("d")
	if err := m.Rename("d/a.tmp", "d/a"); err != nil {
		t.Fatal(err)
	}
	// No SyncDir after the rename: the new entry is not durable.
	m.Crash()
	if _, err := m.Open("d/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("un-fsynced rename survived the crash: err=%v", err)
	}
}

func TestMemFSCreateExcl(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	if _, err := m.Create("d/a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("d/a", true); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second exclusive create: err=%v, want ErrExist", err)
	}
	if _, err := m.Create("d/a", false); err != nil {
		t.Fatalf("truncating create: %v", err)
	}
}

// TestManagerOnMemFSCrashRecovery runs the full journal lifecycle on the
// in-memory filesystem: append under FsyncAlways, snapshot, crash, and
// recover — everything acknowledged must come back.
func TestManagerOnMemFSCrashRecovery(t *testing.T) {
	mem := NewMemFS()
	open := func() *Manager {
		m, err := Open("data", Options{Fsync: FsyncAlways, Now: fixedClock(), FS: mem})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return m
	}
	m := open()
	for i := 0; i < 5; i++ {
		if _, err := m.Append(Event{Kind: EvAdmit, Task: "t", Machine: -1, Slot: -1}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := m.WriteSnapshot(&PlacerState{Seq: 3}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := m.Append(Event{Kind: EvComplete, Task: "t", Machine: -1, Slot: -1}); err != nil {
		t.Fatalf("post-snapshot append: %v", err)
	}

	mem.Crash()

	m2 := open()
	rec := m2.Recovery()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 3 {
		t.Fatalf("recovered snapshot = %+v, want seq 3", rec.Snapshot)
	}
	if got := rec.LastSeq(); got != 6 {
		t.Fatalf("recovered LastSeq = %d, want 6 (nothing acknowledged may be lost under FsyncAlways)", got)
	}
	if len(rec.Events) != 3 {
		t.Fatalf("replay suffix has %d events, want 3 (seqs 4..6)", len(rec.Events))
	}
	if _, err := m2.Append(Event{Kind: EvAdmit, Task: "u", Machine: -1, Slot: -1}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := m2.LastSeq(); got != 7 {
		t.Fatalf("LastSeq after recovery append = %d, want 7", got)
	}
}

// TestManagerOnMemFSFsyncNeverLosesSuffix checks the other durability
// contract: with FsyncNever, a crash rolls back to the last forced sync
// — a prefix, never a reordering.
func TestManagerOnMemFSFsyncNeverLosesSuffix(t *testing.T) {
	mem := NewMemFS()
	m, err := Open("data", Options{Fsync: FsyncNever, Now: fixedClock(), FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Append(Event{Kind: EvAdmit, Task: "t", Machine: -1, Slot: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Append(Event{Kind: EvAdmit, Task: "u", Machine: -1, Slot: -1}); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	m2, err := Open("data", Options{Fsync: FsyncNever, Now: fixedClock(), FS: mem})
	if err != nil {
		t.Fatalf("recovery after FsyncNever crash: %v", err)
	}
	if got := m2.Recovery().LastSeq(); got != 3 {
		t.Fatalf("recovered LastSeq = %d, want 3 (the synced prefix)", got)
	}
}

// TestSyncDueOnlyUnderInterval: only the interval policy owes a deferred
// sync, due one interval after the last sync, and Sync settles it; a
// second Sync has nothing to do.
func TestSyncDueOnlyUnderInterval(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		mem := NewMemFS()
		m, err := Open("data", Options{Fsync: policy, Now: fixedClock(), FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Append(Event{Kind: EvAdmit, Task: "t", Machine: -1, Slot: -1}); err != nil {
			t.Fatal(err)
		}
		d, due := m.SyncDue()
		if want := policy == FsyncInterval; due != want || (due && (d <= 0 || d > DefaultFsyncInterval)) {
			t.Errorf("%v: SyncDue = (%v, %v), want due=%v within one interval", policy, d, due, want)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, due := m.SyncDue(); due {
			t.Errorf("%v: a sync is still due after Sync", policy)
		}
		if policy != FsyncAlways {
			mem.Crash()
			m2, err := Open("data", Options{Fsync: policy, Now: fixedClock(), FS: mem})
			if err != nil {
				t.Fatal(err)
			}
			if got := m2.Recovery().LastSeq(); got != 1 {
				t.Errorf("%v: recovered LastSeq %d after Sync, want 1", policy, got)
			}
		}
	}
}
