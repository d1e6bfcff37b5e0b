package durable

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tracon/internal/obs"
)

// errPowerLost is what every call returns once crashFS has crashed.
var errPowerLost = errors.New("power lost")

// crashFS is a MemFS that loses power right after its k-th mutating call
// (MkdirAll, Create, Remove, Rename, SyncDir, and Write, Sync or Truncate
// on a file it opened; k <= 0 never crashes). The call takes effect, then
// MemFS.Crash drops whatever was not yet durable, and every later call
// fails: a dead process makes no further writes.
type crashFS struct {
	*MemFS
	k, calls int
	crashed  bool
}

// do runs one mutating call and crashes after it when it is the k-th.
func (c *crashFS) do(call func() error) error {
	if c.crashed {
		return errPowerLost
	}
	err := call()
	if c.calls++; c.calls == c.k {
		c.MemFS.Crash()
		c.crashed = true
		return errPowerLost
	}
	return err
}

func (c *crashFS) MkdirAll(dir string) error {
	return c.do(func() error { return c.MemFS.MkdirAll(dir) })
}
func (c *crashFS) Remove(name string) error {
	return c.do(func() error { return c.MemFS.Remove(name) })
}
func (c *crashFS) Rename(oldpath, newpath string) error {
	return c.do(func() error { return c.MemFS.Rename(oldpath, newpath) })
}
func (c *crashFS) SyncDir(dir string) error {
	return c.do(func() error { return c.MemFS.SyncDir(dir) })
}

func (c *crashFS) Create(name string, excl bool) (File, error) {
	var f File
	err := c.do(func() (err error) { f, err = c.MemFS.Create(name, excl); return err })
	if err != nil {
		return nil, err
	}
	return crashFile{f, c}, nil
}

func (c *crashFS) OpenWrite(name string) (File, error) {
	if c.crashed {
		return nil, errPowerLost
	}
	f, err := c.MemFS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return crashFile{f, c}, nil
}

// crashFile routes a file's writes through its crashFS's count.
type crashFile struct {
	File
	c *crashFS
}

func (f crashFile) Write(p []byte) (n int, err error) {
	err = f.c.do(func() (err error) { n, err = f.File.Write(p); return err })
	return n, err
}
func (f crashFile) Sync() error { return f.c.do(f.File.Sync) }
func (f crashFile) Truncate(size int64) error {
	return f.c.do(func() error { return f.File.Truncate(size) })
}

// TestCrashAtEveryCall enumerates the crash points of a journal's life, in
// the manner of Pillai et al. (OSDI 2014): for each policy, a scripted life
// runs once per mutating filesystem call and loses power right after that
// call. Every crash state must boot; recover a prefix of what was appended
// that holds everything made durable before the crash; take one more
// append and boot again with it; and pass Verify's strict scan.
func TestCrashAtEveryCall(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			clean := crashLife(t, policy, 0)
			if clean.mem.calls < 30 {
				t.Fatalf("the life makes only %d mutating calls", clean.mem.calls)
			}
			checkCrashState(t, clean, "no crash")
			t.Logf("%d crash points", clean.mem.calls)
			for k := 1; k <= clean.mem.calls; k++ {
				checkCrashState(t, crashLife(t, policy, k), fmt.Sprintf("crash after call %d", k))
			}
		})
	}
}

// lifeRun is what one scripted life left behind.
type lifeRun struct {
	mem      *crashFS
	opts     Options
	appended []Event // every event an Append was called with, Seq stamped
	durable  uint64  // the newest seq that a returned call made durable
}

// crashLife runs the script on a crashFS that crashes after call k, and
// stops at the first error (the crash).
func crashLife(t *testing.T, policy FsyncPolicy, k int) *lifeRun {
	clock := obs.NewVirtualClock(time.Unix(1700000000, 0))
	r := &lifeRun{mem: &crashFS{MemFS: NewMemFS(), k: k}}
	r.opts = Options{Fsync: policy, FsyncInterval: 10 * time.Millisecond, SnapshotKeep: 1, Now: clock.Now, FS: r.mem}
	m, err := Open("data", r.opts)
	if err != nil {
		return r
	}
	appendGroup := func(n int) error {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = admitEv(fmt.Sprintf("t-%d", len(r.appended)+i+1))
		}
		clock.Advance(4 * time.Millisecond) // the interval policy syncs some appends, not others
		_, err := m.Append(evs...)
		// Recorded whatever err says: a crash inside Append may follow the write.
		r.appended = append(r.appended, evs...)
		if err == nil && policy == FsyncAlways {
			r.durable = m.LastSeq()
		}
		return err
	}
	durably := func(err error) error {
		if err == nil {
			r.durable = m.LastSeq()
		}
		return err
	}
	snapshot := func() error { return durably(m.WriteSnapshot(&PlacerState{Seq: m.LastSeq()})) }
	script := []func() error{
		func() error { return appendGroup(2) },
		func() error { return appendGroup(1) },
		func() error { return durably(m.Sync()) },
		func() error { return appendGroup(2) }, // unsynced under interval and never
		snapshot,                               // rotates
		func() error { return appendGroup(1) },
		func() error { return appendGroup(2) },
		snapshot, // rotates, prunes the covered segment and the first snapshot
		func() error { return appendGroup(1) },
		func() error { return durably(m.Close()) },
	}
	for _, step := range script {
		if err := step(); err != nil {
			if !errors.Is(err, errPowerLost) {
				t.Fatalf("life on %s without a crash point failed: %v", policy, err)
			}
			break
		}
	}
	return r
}

// checkCrashState boots what the life left on disk and checks it.
func checkCrashState(t *testing.T, r *lifeRun, point string) {
	t.Helper()
	opts := r.opts
	opts.FS = r.mem.MemFS
	m, err := Open("data", opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", point, err)
	}
	ri := m.Recovery()
	last := m.LastSeq()
	if last < r.durable || last > uint64(len(r.appended)) || ri.LastSeq() != last {
		t.Fatalf("%s: recovered through seq %d (manager %d), want %d..%d", point, ri.LastSeq(), last, r.durable, len(r.appended))
	}
	from := uint64(0)
	if ri.Snapshot != nil {
		from = ri.Snapshot.Seq
	}
	for i, ev := range ri.Events {
		if want := r.appended[from+uint64(i)]; ev.Seq != from+uint64(i)+1 || ev.Seq != want.Seq || ev.Task != want.Task {
			t.Fatalf("%s: replay event %d is seq %d %s, want seq %d %s", point, i, ev.Seq, ev.Task, want.Seq, want.Task)
		}
	}
	if seq, err := m.Append(admitEv("t-after")); err != nil || seq != last+1 {
		t.Fatalf("%s: append after recovery: seq %d, %v", point, seq, err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("%s: close: %v", point, err)
	}
	m2, err := Open("data", opts)
	if err != nil {
		t.Fatalf("%s: second Open: %v", point, err)
	}
	evs := m2.Recovery().Events
	if m2.LastSeq() != last+1 || len(evs) == 0 || evs[len(evs)-1].Task != "t-after" {
		t.Fatalf("%s: second boot recovered through seq %d, want the append after recovery at %d", point, m2.LastSeq(), last+1)
	}
	m2.Close()
	if _, err := scanDir(r.mem.MemFS, "data", func(string, *PlacerState, *walSegment) {}); err != nil {
		t.Fatalf("%s: Verify: %v", point, err)
	}
}
