package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fixedClock is a deterministic Options.Now for tests.
func fixedClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time { return at }
}

// testEvents builds n admit-style events with consecutive seqs from 1.
func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Seq: uint64(i + 1), Kind: EvAdmit,
			Task: "t-" + string(rune('1'+i)), App: "sort",
			Machine: -1, Slot: -1,
		}
	}
	return evs
}

// readFileT reads one file of a test's data dir.
func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rawWAL renders a magic header plus the framed events.
func rawWAL(t *testing.T, evs ...Event) []byte {
	t.Helper()
	buf := append([]byte{}, walMagic[:]...)
	var err error
	for _, ev := range evs {
		if buf, err = encodeFrame(buf, ev, maxFrame); err != nil {
			t.Fatalf("encodeFrame: %v", err)
		}
	}
	return buf
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	w, err := createWAL(OSFS{}, path, FsyncAlways, 0, fixedClock())
	if err != nil {
		t.Fatalf("createWAL: %v", err)
	}
	want := testEvents(3)
	if _, err := w.append(want); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	seg, err := readWAL(readFileT(t, path), 1)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if seg.Torn {
		t.Fatal("clean segment reported torn")
	}
	if len(seg.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(seg.Events), len(want))
	}
	for i, ev := range seg.Events {
		if ev.Seq != want[i].Seq || ev.Kind != want[i].Kind || ev.Task != want[i].Task {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, ev, want[i])
		}
	}
	fi, _ := os.Stat(path)
	if seg.GoodSize != fi.Size() {
		t.Fatalf("GoodSize %d != file size %d", seg.GoodSize, fi.Size())
	}
}

func TestWALEmptyFile(t *testing.T) {
	seg, err := readWAL(nil, 0)
	if err != nil {
		t.Fatalf("empty file must read cleanly, got %v", err)
	}
	if !seg.Torn || len(seg.Events) != 0 || seg.GoodSize != 0 {
		t.Fatalf("empty file: %+v", seg)
	}
}

func TestWALHeaderOnly(t *testing.T) {
	seg, err := readWAL(walMagic[:], 0)
	if err != nil {
		t.Fatalf("header-only file: %v", err)
	}
	if seg.Torn || len(seg.Events) != 0 || seg.GoodSize != int64(len(walMagic)) {
		t.Fatalf("header-only file: %+v", seg)
	}
}

func TestWALBadMagic(t *testing.T) {
	data := rawWAL(t, testEvents(1)...)
	data[0] ^= 0xff
	if _, err := readWAL(data, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// TestWALTornFinalFrame cuts a log mid-way through its last frame — the
// crash-mid-write shape — and verifies the reader truncates exactly the
// tail, and that a writer reopened at GoodSize continues the chain.
func TestWALTornFinalFrame(t *testing.T) {
	evs := testEvents(3)
	full := rawWAL(t, evs...)
	twoOnly := rawWAL(t, evs[:2]...)
	for cut := len(twoOnly) + 1; cut < len(full); cut++ {
		seg, err := readWAL(full[:cut], 1)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !seg.Torn {
			t.Fatalf("cut %d: torn tail not detected", cut)
		}
		if len(seg.Events) != 2 || seg.GoodSize != int64(len(twoOnly)) {
			t.Fatalf("cut %d: got %d events, GoodSize %d", cut, len(seg.Events), seg.GoodSize)
		}
	}

	// Reopen at GoodSize and append: the tail is gone, the chain continues.
	path := filepath.Join(t.TempDir(), "seg.wal")
	cut := full[:len(full)-3]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openWALForAppend(OSFS{}, path, int64(len(twoOnly)), FsyncAlways, 0, fixedClock())
	if err != nil {
		t.Fatalf("openWALForAppend: %v", err)
	}
	if _, err := w.append([]Event{{Seq: 3, Kind: EvComplete, Task: "t-1", Machine: 0, Slot: 0}}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seg, err := readWAL(readFileT(t, path), 1)
	if err != nil {
		t.Fatalf("reread: %v", err)
	}
	if seg.Torn || len(seg.Events) != 3 || seg.Events[2].Kind != EvComplete {
		t.Fatalf("after truncate+append: torn=%v events=%d", seg.Torn, len(seg.Events))
	}
}

// TestWALFlippedByteMidLog flips one payload byte of a frame that has
// valid frames after it: that is corruption, not a torn tail, and must be
// rejected — skipping it would replay a state the daemon never held.
func TestWALFlippedByteMidLog(t *testing.T) {
	evs := testEvents(3)
	data := rawWAL(t, evs...)
	firstPayload := int64(len(walMagic) + frameHeader)
	data[firstPayload+2] ^= 0x01
	_, err := readWAL(data, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log flip: got %v, want ErrCorrupt", err)
	}
}

// TestWALFlippedByteFinalFrame flips a byte in the last frame: with
// nothing after it this is indistinguishable from a torn overwrite of the
// tail, so it truncates instead of failing recovery.
func TestWALFlippedByteFinalFrame(t *testing.T) {
	evs := testEvents(3)
	data := rawWAL(t, evs...)
	twoOnly := rawWAL(t, evs[:2]...)
	data[len(data)-2] ^= 0x01
	seg, err := readWAL(data, 1)
	if err != nil {
		t.Fatalf("final-frame flip: %v", err)
	}
	if !seg.Torn || len(seg.Events) != 2 || seg.GoodSize != int64(len(twoOnly)) {
		t.Fatalf("final-frame flip: torn=%v events=%d good=%d", seg.Torn, len(seg.Events), seg.GoodSize)
	}
}

func TestWALOversizedFrame(t *testing.T) {
	data := append([]byte{}, walMagic[:]...)
	data = append(data, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) // length ~4 GiB
	_, err := readWAL(data, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: got %v, want ErrCorrupt", err)
	}
}

func TestWALBrokenSeqChain(t *testing.T) {
	evs := testEvents(3)
	evs[2].Seq = 5 // gap: 1, 2, 5
	data := rawWAL(t, evs...)
	_, err := readWAL(data, 1)
	if !errors.Is(err, ErrBadSeq) {
		t.Fatalf("seq gap: got %v, want ErrBadSeq", err)
	}
	// firstSeq 0 infers the chain from the first frame — same gap, same
	// verdict.
	if _, err := readWAL(data, 0); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("seq gap (inferred): got %v, want ErrBadSeq", err)
	}
}

func TestWALWrongFirstSeq(t *testing.T) {
	data := rawWAL(t, testEvents(2)...)
	if _, err := readWAL(data, 7); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("wrong firstSeq: got %v, want ErrBadSeq", err)
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, want := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(want.String())
		if err != nil || got != want {
			t.Fatalf("round trip %v: got %v, %v", want, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	st := &PlacerState{
		Seq: 42, NextID: 7,
		Machines: []MachineState{{State: "up", Slots: []SlotState{{Task: "t-1", App: "sort"}, {}}}},
		Queue:    []string{"t-2"},
		Placements: []PlacementState{
			{ID: "t-1", App: "sort", Status: "placed", Machine: 0, Slot: 0},
			{ID: "t-2", App: "grep", Status: "queued", Machine: -1, Slot: -1},
		},
		Rejected: 3,
	}
	if err := WriteSnapshotFile(path, st); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := readSnapshot(readFileT(t, path))
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if got.Seq != st.Seq || got.NextID != st.NextID || len(got.Placements) != 2 || got.Rejected != 3 {
		t.Fatalf("snapshot mismatch: %+v", got)
	}

	// A flipped byte anywhere makes the snapshot unreadable — typed, so
	// recovery can fall back to an older one.
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(readFileT(t, path)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorrupt", err)
	}
}

func TestTaskSeq(t *testing.T) {
	for _, tc := range []struct {
		id string
		n  int64
		ok bool
	}{
		{"t-1", 1, true}, {"t-120", 120, true},
		{"x-1", 0, false}, {"t-", 0, false}, {"t-0", 0, false}, {"t--3", 0, false},
	} {
		n, ok := TaskSeq(tc.id)
		if n != tc.n || ok != tc.ok {
			t.Fatalf("TaskSeq(%q) = %d, %v", tc.id, n, ok)
		}
	}
}
