package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
)

// newDurableServer boots a journaled server over dir with fsync=always.
// The caller "crashes" it by closing the manager without a final snapshot
// and booting a successor over the same dir.
func newDurableServer(t testing.TB, dir string, machines int) (*Server, *durable.Manager) {
	t.Helper()
	mgr, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testLibrary(t, model.NLM), Config{Machines: machines, MaxQueue: -1, Journal: mgr})
	if err != nil {
		mgr.Close()
		t.Fatalf("booting journaled server: %v", err)
	}
	return s, mgr
}

// stateJSON renders the exported placer state for byte comparison.
func stateJSON(t testing.TB, st *durable.PlacerState) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// completeAll drives every non-terminal placement to completed.
func completeAll(t testing.TB, p *Placer, ids []string) {
	t.Helper()
	for pass := 0; pass < len(ids)+1; pass++ {
		progress := false
		for _, id := range ids {
			rec, ok := p.Get(id)
			if !ok {
				t.Fatalf("placement %s vanished", id)
			}
			if rec.Status == StatusPlaced {
				if _, err := p.Complete(id); err != nil {
					t.Fatalf("complete %s: %v", id, err)
				}
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for _, id := range ids {
		if rec, _ := p.Get(id); rec.Status != StatusCompleted {
			t.Fatalf("placement %s stuck at %s", id, rec.Status)
		}
	}
}

// TestRecoveryGoldenState: with every task terminal at crash time, the
// recovered placer state must be byte-identical to the live export —
// including the sequence stamp, since recovery with no orphans appends
// nothing.
func TestRecoveryGoldenState(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	var ids []string
	for i := 0; i < 6; i++ {
		rec, err := p1.SubmitKeyed(apps[i%len(apps)], fmt.Sprintf("req-%d", i), fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	completeAll(t, p1, ids)
	if err := p1.Drain(1); err != nil {
		t.Fatal(err)
	}
	live := stateJSON(t, p1.ExportState())
	if err := mgr1.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	s2, mgr2 := newDurableServer(t, dir, 2)
	defer mgr2.Close()
	recovered := stateJSON(t, s2.Placer().ExportState())
	if recovered != live {
		t.Fatalf("recovered state diverges from live export:\nlive:      %s\nrecovered: %s", live, recovered)
	}
	if err := s2.Placer().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryOrphanRequeue crashes with tasks in flight: recovery must
// re-queue them (FIFO-fair, at the front, in admission order), bump their
// retry counts, and leave an invariant-clean placer.
func TestRecoveryOrphanRequeue(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	var ids []string
	placed := 0
	for i := 0; i < 6; i++ {
		rec, err := p1.SubmitKeyed(apps[i%len(apps)], "", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
		if rec.Status == StatusPlaced {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("fixture: no task was placed before the crash")
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, mgr2 := newDurableServer(t, dir, 2)
	defer mgr2.Close()
	p2 := s2.Placer()
	if err := p2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	requeued := 0
	for _, id := range ids {
		rec, ok := p2.Get(id)
		if !ok {
			t.Fatalf("admitted task %s lost in recovery", id)
		}
		switch rec.Status {
		case StatusPlaced, StatusQueued:
		default:
			t.Fatalf("task %s recovered as %s", id, rec.Status)
		}
		if rec.Retries > 0 {
			requeued++
		}
	}
	if requeued != placed {
		t.Fatalf("%d tasks show a retry, want the %d orphans", requeued, placed)
	}
	// A third boot replays the journaled requeue and orphans the second
	// boot's re-placements in turn: every crash-restart costs in-flight
	// tasks exactly one more retry, and nothing else drifts.
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, mgr3 := newDurableServer(t, dir, 2)
	defer mgr3.Close()
	p3 := s3.Placer()
	if err := p3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec2, _ := p2.Get(id)
		rec3, ok := p3.Get(id)
		if !ok {
			t.Fatalf("task %s lost on the third boot", id)
		}
		if rec2.Retries > 0 && rec3.Retries != rec2.Retries+1 {
			t.Fatalf("task %s: retries %d after boot 2, %d after boot 3 (want +1)", id, rec2.Retries, rec3.Retries)
		}
		if rec3.App != rec2.App || rec3.ID != rec2.ID {
			t.Fatalf("task %s mutated across boots", id)
		}
	}
}

// TestRecoveryDedupSurvivesRestart: a client retrying a keyed submit
// across a daemon crash gets its original placement back.
func TestRecoveryDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	apps := testLibrary(t, model.NLM).Apps()
	rec1, err := s1.Placer().SubmitKeyed(apps[0], "req-1", "client-key-A")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, mgr2 := newDurableServer(t, dir, 2)
	defer mgr2.Close()
	rec2, err := s2.Placer().SubmitKeyed(apps[1], "req-2", "client-key-A")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID != rec1.ID {
		t.Fatalf("dedup lost across restart: %s vs %s", rec2.ID, rec1.ID)
	}
	if rec2.App != rec1.App {
		t.Fatalf("dedup returned a different task: app %s vs %s", rec2.App, rec1.App)
	}
}

// TestRecoveryMachineLifecycle: drained and down machines stay that way
// across a crash, and a kill's evictions replay.
func TestRecoveryMachineLifecycle(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 3)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	for i := 0; i < 6; i++ {
		if _, err := p1.SubmitKeyed(apps[i%len(apps)], "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Drain(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, mgr2 := newDurableServer(t, dir, 3)
	defer mgr2.Close()
	mvs := s2.Placer().Machines()
	if mvs[0].State != MachineDrained {
		t.Fatalf("machine 0 recovered as %s, want drained", mvs[0].State)
	}
	if mvs[1].State != MachineDown {
		t.Fatalf("machine 1 recovered as %s, want down", mvs[1].State)
	}
	for _, sv := range mvs[1].Slots {
		if sv.Task != "" {
			t.Fatalf("down machine still holds %s", sv.Task)
		}
	}
	if err := s2.Placer().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIdempotence applies the same journal suffix twice onto one
// placer: state-guarded transitions must converge, byte-identically.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	var ids []string
	for i := 0; i < 6; i++ {
		rec, err := p1.SubmitKeyed(apps[i%len(apps)], "", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if _, err := p1.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	info := mgr2.Recovery()
	if len(info.Events) == 0 {
		t.Fatal("fixture journaled no events")
	}

	// A bare (journal-less) server replays the suffix by hand, twice.
	s2, err := New(testLibrary(t, model.NLM), Config{Machines: 2, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	p2 := s2.Placer()
	if info.Snapshot != nil {
		if err := p2.RestoreState(info.Snapshot); err != nil {
			t.Fatal(err)
		}
	}
	replay := func() {
		for _, ev := range info.Events {
			if err := p2.Apply(ev); err != nil {
				t.Fatalf("apply seq %d (%s): %v", ev.Seq, ev.Kind, err)
			}
		}
	}
	replay()
	once := stateJSON(t, p2.ExportState())
	replay()
	twice := stateJSON(t, p2.ExportState())
	if once != twice {
		t.Fatalf("double replay diverged:\nonce:  %s\ntwice: %s", once, twice)
	}
	if err := p2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The same property at commit-group granularity, over a long mixed
	// stream: a follower that applies every group the live placer commits
	// twice over stays byte-identical to it.
	for i, policy := range []string{"mios", "mibs"} {
		runFollower(t, policy, randomFollowerOps(int64(100+i), 400), true)
	}
}

// TestRecoveryCrashPointMatrix truncates the journal at a ladder of byte
// offsets — frame boundaries and mid-frame tears alike — and requires
// every prefix to boot: recovery either replays a clean prefix or
// truncates a torn tail, never refuses or corrupts.
func TestRecoveryCrashPointMatrix(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	var ids []string
	for i := 0; i < 5; i++ {
		rec, err := p1.SubmitKeyed(apps[i%len(apps)], "", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if _, err := p1.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	// The newest (event-bearing) segment is the crash surface.
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}

	const magicLen = 8
	if len(data) <= magicLen {
		t.Fatalf("fixture segment holds no events (%d bytes)", len(data))
	}
	span := len(data) - magicLen
	for step := 0; step <= 8; step++ {
		cut := magicLen + span*step/8
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cdir := t.TempDir()
			for _, sp := range snaps {
				b, err := os.ReadFile(sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cdir, filepath.Base(sp)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, mgr2 := newDurableServer(t, cdir, 2)
			defer mgr2.Close()
			p2 := s2.Placer()
			if err := p2.CheckInvariants(); err != nil {
				t.Fatalf("invariants after cut %d: %v", cut, err)
			}
			// Whatever was admitted in the surviving prefix is intact; no
			// phantom tasks appear.
			for _, id := range ids {
				if rec, ok := p2.Get(id); ok {
					switch rec.Status {
					case StatusQueued, StatusPlaced, StatusCompleted:
					default:
						t.Fatalf("task %s recovered as %s", id, rec.Status)
					}
					if !strings.HasPrefix(rec.ID, "t-") {
						t.Fatalf("foreign task ID %q", rec.ID)
					}
				}
			}
		})
	}
}

// TestRecoveryTornSnapshotFallback boots over a data dir whose newest
// snapshot is torn: the server must fall back to the older snapshot plus
// the WAL suffix instead of refusing to start.
func TestRecoveryTornSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	p1 := s1.Placer()
	apps := testLibrary(t, model.NLM).Apps()
	rec, err := p1.SubmitKeyed(apps[0], "", "key-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.SubmitKeyed(apps[1], "", "key-1"); err != nil {
		t.Fatal(err)
	}
	last := mgr1.LastSeq()
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn newest snapshot, as a crash mid-rotation would leave it.
	torn := filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", last))
	if err := os.WriteFile(torn, []byte("TRCNSNP1 torn mid write"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, mgr2 := newDurableServer(t, dir, 2)
	defer mgr2.Close()
	if got := mgr2.Recovery().SkippedSnapshots; got != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", got)
	}
	for _, id := range []string{rec.ID, "t-2"} {
		if _, ok := s2.Placer().Get(id); !ok {
			t.Fatalf("task %s lost through snapshot fallback", id)
		}
	}
	if err := s2.Placer().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryWrongClusterShape: booting a data dir recorded by a
// different inventory size must fail loudly, not half-restore.
func TestRecoveryWrongClusterShape(t *testing.T) {
	dir := t.TempDir()
	s1, mgr1 := newDurableServer(t, dir, 2)
	if _, err := s1.Placer().SubmitKeyed(testLibrary(t, model.NLM).Apps()[0], "", ""); err != nil {
		t.Fatal(err)
	}
	if err := s1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if _, err := New(testLibrary(t, model.NLM), Config{Machines: 5, Journal: mgr2}); err == nil {
		t.Fatal("booted a 5-machine server over a 2-machine journal")
	} else if !strings.Contains(err.Error(), "cluster shape") {
		t.Fatalf("unexpected shape error: %v", err)
	}
}

// TestIntervalFsyncSyncsIdleTail: under the interval policy an
// acknowledged submission is on disk one interval later even when no
// further append comes to sync it — the journal arms a timer on the
// daemon's clock — so it survives a power loss after that interval.
func TestIntervalFsyncSyncsIdleTail(t *testing.T) {
	fs := durable.NewMemFS()
	clock := obs.NewVirtualClock(time.Unix(1700000000, 0))
	lib := testLibrary(t, model.NLM)
	boot := func() *Server {
		mgr, err := durable.Open("data", durable.Options{FS: fs, Fsync: durable.FsyncInterval, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(lib, Config{Machines: 2, MaxQueue: -1, TraceCap: -1, Journal: mgr, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rec, err := boot().Placer().SubmitKeyed(lib.Apps()[0], "", "")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(durable.DefaultFsyncInterval)
	fs.Crash()
	if _, ok := boot().Placer().Get(rec.ID); !ok {
		t.Fatalf("task %s acknowledged %v before the crash is lost", rec.ID, durable.DefaultFsyncInterval)
	}
}

// TestIntervalFsyncTailUnderLoad: on the wall clock, submitters on several
// goroutines race the tail timer (the race pass checks the journal's
// locking), and once no sync is due every acknowledged task survives a
// power loss.
func TestIntervalFsyncTailUnderLoad(t *testing.T) {
	fs := durable.NewMemFS()
	lib := testLibrary(t, model.NLM)
	boot := func() (*Server, *durable.Manager) {
		mgr, err := durable.Open("data", durable.Options{FS: fs, Fsync: durable.FsyncInterval, FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(lib, Config{Machines: 4, MaxQueue: -1, TraceCap: -1, Journal: mgr})
		if err != nil {
			t.Fatal(err)
		}
		return s, mgr
	}
	s, mgr := boot()
	ids := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec, err := s.Placer().SubmitKeyed(lib.Apps()[i%len(lib.Apps())], "", "")
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], rec.ID)
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, due := mgr.SyncDue(); !due {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the journal still owes a sync 5s after the last append")
		}
	}
	fs.Crash()
	s2, _ := boot()
	for _, g := range ids {
		for _, id := range g {
			if _, ok := s2.Placer().Get(id); !ok {
				t.Fatalf("acknowledged task %s lost after the tail was synced", id)
			}
		}
	}
}
