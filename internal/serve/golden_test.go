package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"path"
	"sort"
	"strings"
	"testing"

	"tracon/internal/durable"
	"tracon/internal/model"
)

// Hashes of the journal a fixed op script leaves behind, captured at the
// commit before the placer's transitions were folded into one apply path
// (25846ea). They pin the event schema, order and grouping, the slot
// choice and the snapshot encoding: any refactor of the placer must
// reproduce these bytes exactly.
const (
	goldenWALAtCrash       = "710a364a57f70ddaa739b0a99373e3b7ff873b5e9f2b48fd4db7777c3b59eee4"
	goldenSnapshotRecovery = "6638a8e4e4765e7f8bd638d9a0174b2b41f119125aa4286113103c383cebcd91"
	goldenWALAfterRecovery = "c175619ef2e27e3441b18d2797979192110c4591143f6fae47f600dc4593ded9"
)

// hashFiles returns the SHA-256 of the named files' bytes, concatenated
// in sequence order (the 20-digit names sort lexically).
func hashFiles(t *testing.T, fs *durable.MemFS, dir, suffix string, newestOnly bool) string {
	t.Helper()
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var picked []string
	for _, name := range names {
		if strings.HasSuffix(name, suffix) {
			picked = append(picked, name)
		}
	}
	sort.Strings(picked)
	if len(picked) == 0 {
		t.Fatalf("no *%s files in %s", suffix, dir)
	}
	if newestOnly {
		picked = picked[len(picked)-1:]
	}
	h := sha256.New()
	for _, name := range picked {
		r, err := fs.Open(path.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestJournalBytesGolden runs one scripted op sequence against a journaled
// daemon on a simulated disk and requires the WAL and the post-recovery
// snapshot to be byte-identical to the checked-in hashes. The script covers
// a keyed singleton, a keyed duplicate, a batch with one unknown app and one
// over-budget task, a completion, a kill with two in-flight tasks, revive,
// drain, undrain, a hot-swap that fails a queued task, and crash + recovery
// with orphans.
func TestJournalBytesGolden(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	fs := durable.NewMemFS()
	boot := func() *Server {
		mgr, err := durable.Open("data", durable.Options{FS: fs, Fsync: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(lib, Config{Machines: 3, Policy: "mios", MaxQueue: 3, TraceCap: -1, Journal: mgr})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := boot()
	p := s.Placer()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	first, err := p.SubmitKeyed(apps[0], "req-a", "key-a")
	must(err)
	dup, err := p.SubmitKeyed(apps[1], "req-a-retry", "key-a")
	must(err)
	if dup.ID != first.ID {
		t.Fatalf("keyed duplicate minted %s, original was %s", dup.ID, first.ID)
	}
	// Fill the remaining five VMs, then queue two more; the last one is
	// the only task of its application, so the hot-swap below can fail it.
	victimApp := apps[len(apps)-1]
	for i, app := range []string{apps[1], apps[2], apps[3], apps[4], apps[5], apps[6], victimApp} {
		rec, err := p.SubmitKeyed(app, "req-fill", "")
		must(err)
		if want := map[bool]string{true: StatusPlaced, false: StatusQueued}[i < 5]; rec.Status != want {
			t.Fatalf("fill task %d is %s, want %s", i, rec.Status, want)
		}
	}
	// Budget is bound 3 + 0 free − 2 queued = 1: the first task is admitted,
	// the unknown one refused, the third shed.
	outs, err := p.SubmitBatchKeyed([]string{apps[2], "nosuch", apps[3]}, []string{"req-b", "req-b", "req-b"}, []string{"key-b#0", "key-b#1", "key-b#2"})
	must(err)
	if outs[0].Err != nil || !errors.Is(outs[1].Err, model.ErrUnknownApp) || !errors.Is(outs[2].Err, ErrQueueFull) {
		t.Fatalf("batch outcomes: %v / %v / %v", outs[0].Err, outs[1].Err, outs[2].Err)
	}
	_, err = p.Complete(first.ID)
	must(err)
	if requeued, err := p.Kill(1); err != nil || requeued != 2 {
		t.Fatalf("kill requeued %d tasks (%v), want 2", requeued, err)
	}
	must(p.Revive(1))
	must(p.Drain(2))
	must(p.Undrain(2))
	// Swap to a library without the victim's application; the drain after
	// the next completion fails the victim out of the queue.
	must(s.ModelSet().Swap(subLibrary(t, lib, apps[:len(apps)-1]...)))
	placed := ""
	for _, mv := range p.Machines() {
		if mv.Slots[0].Task != "" {
			placed = mv.Slots[0].Task
			break
		}
	}
	_, err = p.Complete(placed)
	must(err)
	failed, inFlight := 0, 0
	for _, st := range p.ExportState().Placements {
		switch st.Status {
		case StatusFailed:
			failed++
		case StatusPlaced:
			inFlight++
		}
	}
	if failed != 1 || inFlight == 0 {
		t.Fatalf("fixture: %d tasks failed by the swap (want 1), %d in flight at the crash (want some)", failed, inFlight)
	}
	must(p.CheckInvariants())

	fs.Crash()
	if got := hashFiles(t, fs, "data", ".wal", false); got != goldenWALAtCrash {
		t.Errorf("WAL at crash hashes to %s, golden %s", got, goldenWALAtCrash)
	}
	s2 := boot()
	must(s2.Placer().CheckInvariants())
	if got := hashFiles(t, fs, "data", ".snap", true); got != goldenSnapshotRecovery {
		t.Errorf("post-recovery snapshot hashes to %s, golden %s", got, goldenSnapshotRecovery)
	}
	if got := hashFiles(t, fs, "data", ".wal", false); got != goldenWALAfterRecovery {
		t.Errorf("WAL after recovery hashes to %s, golden %s", got, goldenWALAfterRecovery)
	}
}
