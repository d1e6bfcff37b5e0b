package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracon/internal/obs"
)

// Data directory layout:
//
//	wal-<first seq, 20 digits>.wal    journal segments
//	snap-<covered seq, 20 digits>.snap  compacted snapshots
//
// The manager owns one open segment for appends. Writing a snapshot at
// sequence S rotates to a fresh segment, deletes every segment whose
// events are all <= S, and prunes snapshots beyond Options.SnapshotKeep.
// Recovery loads the newest snapshot that passes its CRC (falling back
// to older ones past a torn write), then replays every surviving event
// with Seq > S.

const (
	walPrefix  = "wal-"
	walSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	seqDigits  = 20
)

// Options tunes a Manager. Zero values take the documented defaults.
type Options struct {
	// Fsync is the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval mode (default 50ms).
	FsyncInterval time.Duration
	// WALMaxBytes triggers the size-based snapshot signal when the live
	// segment exceeds it (default 64 MiB; negative disables).
	WALMaxBytes int64
	// SnapshotKeep bounds retained snapshots (default 2).
	SnapshotKeep int
	// Now injects the clock: the package's only source of wall time, read
	// for fsync-interval pacing and metric durations (defaults to
	// obs.Wall.Now; a test bans direct time.Now calls in this package).
	Now func() time.Time
	// FS injects the filesystem (defaults to OSFS). The deterministic
	// simulation harness passes a MemFS so crashes can be simulated
	// in-process.
	FS FS
}

// DefaultWALMaxBytes is the size-based snapshot threshold.
const DefaultWALMaxBytes = 64 << 20

// DefaultFsyncInterval paces FsyncInterval mode.
const DefaultFsyncInterval = 50 * time.Millisecond

// RecoveryInfo reports what Open found.
type RecoveryInfo struct {
	// Snapshot is the newest valid snapshot's state (nil on a cold
	// start or when every snapshot was unreadable).
	Snapshot *PlacerState
	// Events is the replay suffix: every journaled event with
	// Seq > Snapshot.Seq, in order.
	Events []Event
	// SkippedSnapshots counts snapshot files that failed their CRC (a
	// crash mid-rotation) and were passed over.
	SkippedSnapshots int
	// TornTail reports that the last segment ended in a partial frame,
	// truncated away.
	TornTail bool
	// Segments counts journal segments read.
	Segments int
}

// Manager owns one data directory: the live WAL segment, the snapshot
// set, and the append cursor. Append and WriteSnapshot are safe for
// concurrent use; callers that need event order to match state mutation
// order (the placer) serialize appends under their own lock.
type Manager struct {
	dir  string
	opts Options

	mu       sync.Mutex
	w        *walWriter
	lastSeq  uint64
	segStart uint64 // first seq the live segment can hold
	snapSeq  uint64 // newest snapshot's covered seq
	closed   bool

	recovery RecoveryInfo
	snapSig  chan struct{}

	// metrics; nil until AttachMetrics.
	appends    *obs.Counter
	walBytes   *obs.Counter
	fsyncHist  *obs.Histogram
	snapHist   *obs.Histogram
	snapCount  *obs.Counter
	replayedMx *obs.Gauge
}

// Open prepares dir (creating it if needed), recovers the newest valid
// snapshot plus the WAL suffix, truncates any torn tail, and returns a
// manager positioned to append the next event.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.Now == nil {
		opts.Now = obs.Wall.Now
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.WALMaxBytes == 0 {
		opts.WALMaxBytes = DefaultWALMaxBytes
	}
	if opts.SnapshotKeep <= 0 {
		opts.SnapshotKeep = 2
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, opts: opts, snapSig: make(chan struct{}, 1)}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// listSeqFiles returns the (seq, name) pairs for one prefix/suffix pair,
// sorted ascending by seq.
func listSeqFiles(fsys FS, dir, prefix, suffix string) ([]seqFile, error) {
	names, err := fsys.ReadDirNames(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		out = append(out, seqFile{seq: seq, name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

type seqFile struct {
	seq  uint64
	name string
}

func seqName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%0*d%s", prefix, seqDigits, seq, suffix)
}

// dirScan is what one read of a data directory found.
type dirScan struct {
	info    RecoveryInfo
	lastSeq uint64  // newest sequence the recovered state covers
	live    seqFile // the last segment (name empty when there is none)
	good    int64   // the last segment's GoodSize
}

// visitFunc receives each file a strict scan reads: a snapshot's state,
// or a segment.
type visitFunc func(name string, snap *PlacerState, seg *walSegment)

// scanDir reads dir the way recovery does, and only reads: the newest
// snapshot that decodes, then every segment the replay needs, checking
// the sequence chain. With visit set the scan is strict (Verify and
// Dump): it reads every retained file and hands it to visit, and it also
// fails on the files recovery passes over — a snapshot that does not
// decode, a covered segment that does not read clean or does not chain
// onto its predecessor.
func scanDir(fsys FS, dir string, visit visitFunc) (dirScan, error) {
	var sc dirScan
	snaps, err := listSeqFiles(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return sc, err
	}
	// Newest valid snapshot wins; torn ones (a crash mid-rotation can
	// leave a bad newest file) fall back to the previous.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := readFile(fsys, filepath.Join(dir, snaps[i].name))
		var state *PlacerState
		if err == nil {
			state, err = readSnapshot(data)
		}
		if err != nil {
			if visit == nil && (errors.Is(err, ErrCorrupt) || errors.Is(err, fs.ErrNotExist)) {
				sc.info.SkippedSnapshots++
				continue
			}
			return sc, fmt.Errorf("%s: %w", snaps[i].name, err)
		}
		if state.Seq != snaps[i].seq {
			return sc, fmt.Errorf("%w: snapshot %s claims seq %d", ErrCorrupt, snaps[i].name, state.Seq)
		}
		if sc.info.Snapshot == nil {
			sc.info.Snapshot = state
			sc.lastSeq = state.Seq
		}
		if visit == nil {
			break
		}
		visit(snaps[i].name, state, nil)
	}

	segs, err := listSeqFiles(fsys, dir, walPrefix, walSuffix)
	if err != nil {
		return sc, err
	}
	snapSeq := sc.lastSeq
	var chain uint64 // the last event read so far, for the strict chain check
	for i, sf := range segs {
		// A segment is fully covered by the snapshot when the next
		// segment starts at or before the first sequence replay needs.
		covered := i+1 < len(segs) && segs[i+1].seq <= snapSeq+1
		if covered && visit == nil {
			continue
		}
		data, err := readFile(fsys, filepath.Join(dir, sf.name))
		var seg walSegment
		if err == nil {
			seg, err = readWAL(data, sf.seq)
		}
		if err != nil {
			return sc, fmt.Errorf("reading %s: %w", sf.name, err)
		}
		if seg.Torn && i != len(segs)-1 {
			return sc, fmt.Errorf("%w: %s has a torn tail but is not the last segment", ErrCorrupt, sf.name)
		}
		if n := len(seg.Events); n > 0 {
			first := seg.Events[0].Seq
			if !covered && sc.lastSeq > 0 && first > sc.lastSeq+1 {
				return sc, fmt.Errorf("%w: %s starts at seq %d after seq %d", ErrBadSeq, sf.name, first, sc.lastSeq)
			}
			if visit != nil && chain > 0 && first != chain+1 {
				return sc, fmt.Errorf("%w: %s starts at seq %d after seq %d", ErrBadSeq, sf.name, first, chain)
			}
			chain = seg.Events[n-1].Seq
		}
		if visit != nil {
			visit(sf.name, nil, &seg)
		}
		if covered {
			continue
		}
		sc.info.Segments++
		sc.info.TornTail = sc.info.TornTail || seg.Torn
		for _, ev := range seg.Events {
			sc.lastSeq = max(sc.lastSeq, ev.Seq)
			if ev.Seq > snapSeq {
				sc.info.Events = append(sc.info.Events, ev)
			}
		}
		sc.live, sc.good = sf, seg.GoodSize
	}
	return sc, nil
}

// recover loads the snapshot + WAL suffix and opens the live segment.
func (m *Manager) recover() error {
	sc, err := scanDir(m.opts.FS, m.dir, nil)
	if err != nil {
		return err
	}
	m.recovery, m.lastSeq = sc.info, sc.lastSeq
	if sc.info.Snapshot != nil {
		m.snapSeq = sc.info.Snapshot.Seq
	}
	if sc.live.name == "" {
		return m.rotateLocked()
	}
	// Reuse the last segment (truncating a torn tail) when it is usable;
	// one that never got its header to disk is replaced.
	path := filepath.Join(m.dir, sc.live.name)
	if sc.good < int64(len(walMagic)) {
		if err := m.opts.FS.Remove(path); err != nil {
			return err
		}
		return m.rotateLocked()
	}
	m.segStart = sc.live.seq
	m.w, err = openWALForAppend(m.opts.FS, path, sc.good, m.opts.Fsync, m.opts.FsyncInterval, m.opts.Now)
	if err == nil {
		m.w.onFsync = m.observeFsync
	}
	return err
}

// rotateLocked opens a fresh segment starting at lastSeq+1. Callers hold
// m.mu (or are inside Open, before the manager is shared).
func (m *Manager) rotateLocked() error {
	if m.w != nil {
		if err := m.w.close(); err != nil {
			return err
		}
		m.w = nil
	}
	start := m.lastSeq + 1
	w, err := createWAL(m.opts.FS, filepath.Join(m.dir, seqName(walPrefix, start, walSuffix)), m.opts.Fsync, m.opts.FsyncInterval, m.opts.Now)
	if err != nil {
		return err
	}
	w.onFsync = m.observeFsync
	m.w = w
	m.segStart = start
	return m.opts.FS.SyncDir(m.dir)
}

// Recovery returns what Open found (valid for the manager's lifetime).
func (m *Manager) Recovery() RecoveryInfo { return m.recovery }

// LastSeq returns the newest assigned sequence number.
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// Fsync returns the configured append durability policy.
func (m *Manager) Fsync() FsyncPolicy { return m.opts.Fsync }

// Append journals the events as one commit point: sequence numbers are
// assigned here, the frames are written contiguously, and the fsync
// policy is applied once for the group. The assigned sequence of the
// last event is returned.
func (m *Manager) Append(evs ...Event) (uint64, error) {
	if len(evs) == 0 {
		return m.LastSeq(), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.lastSeq, fmt.Errorf("durable: append to closed manager")
	}
	if m.w == nil {
		if err := m.rotateLocked(); err != nil {
			return m.lastSeq, err
		}
	}
	for i := range evs {
		m.lastSeq++
		evs[i].Seq = m.lastSeq
	}
	n, err := m.w.append(evs)
	if m.appends != nil {
		m.appends.Add(float64(len(evs)))
		m.walBytes.Add(float64(n))
	}
	if err != nil {
		return m.lastSeq, err
	}
	if m.opts.WALMaxBytes > 0 && m.w.size > m.opts.WALMaxBytes {
		select {
		case m.snapSig <- struct{}{}:
		default:
		}
	}
	return m.lastSeq, nil
}

// Sync forces unsynced appends to stable storage regardless of policy.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil || !m.w.dirty {
		return nil
	}
	return m.w.sync()
}

// SyncDue reports whether the interval policy owes a sync of appended
// bytes, and how soon; the daemon arms a timer for it so an idle tail is
// synced too. The always and never policies owe none.
func (m *Manager) SyncDue() (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.w; w != nil && w.dirty && w.policy == FsyncInterval {
		return w.interval - w.now().Sub(w.lastSync), true
	}
	return 0, false
}

// SnapshotSignal fires when the live segment outgrows WALMaxBytes; the
// daemon's snapshot loop selects on it next to its age ticker.
func (m *Manager) SnapshotSignal() <-chan struct{} { return m.snapSig }

// WriteSnapshot persists state (whose Seq the caller stamped with the
// last sequence it includes), rotates to a fresh segment, deletes fully
// covered segments and prunes old snapshots.
func (m *Manager) WriteSnapshot(state *PlacerState) error {
	t0 := m.opts.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("durable: snapshot on closed manager")
	}
	if state.Seq > m.lastSeq {
		return fmt.Errorf("durable: snapshot claims seq %d beyond last appended %d", state.Seq, m.lastSeq)
	}
	if err := writeSnapshotFS(m.opts.FS, filepath.Join(m.dir, seqName(snapPrefix, state.Seq, snapSuffix)), state); err != nil {
		return err
	}
	m.snapSeq = state.Seq
	// An empty live segment already positioned at lastSeq+1 needs no
	// rotation — recreating the same filename would trip createWAL's
	// O_EXCL. Idle snapshot loops (age ticker, no traffic) land here.
	if m.w == nil || m.w.size > int64(len(walMagic)) || m.segStart != m.lastSeq+1 {
		if err := m.rotateLocked(); err != nil {
			return err
		}
	}
	if err := m.pruneLocked(); err != nil {
		return err
	}
	if m.snapHist != nil {
		m.snapHist.Observe(m.opts.Now().Sub(t0).Seconds())
		m.snapCount.Inc()
	}
	return nil
}

// pruneLocked deletes segments fully covered by the newest snapshot and
// snapshots beyond the keep bound.
func (m *Manager) pruneLocked() error {
	segs, err := listSeqFiles(m.opts.FS, m.dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	for i, sf := range segs {
		if i+1 >= len(segs) || segs[i+1].seq > m.snapSeq+1 || sf.seq == m.segStart {
			continue
		}
		if err := m.opts.FS.Remove(filepath.Join(m.dir, sf.name)); err != nil {
			return err
		}
	}
	snaps, err := listSeqFiles(m.opts.FS, m.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for i := 0; i < len(snaps)-m.opts.SnapshotKeep; i++ {
		if err := m.opts.FS.Remove(filepath.Join(m.dir, snaps[i].name)); err != nil {
			return err
		}
	}
	return m.opts.FS.SyncDir(m.dir)
}

// Close syncs and closes the live segment.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.w == nil {
		return nil
	}
	err := m.w.close()
	m.w = nil
	return err
}

// AttachMetrics registers the durability instruments on reg and seeds
// the recovery gauge; both exposition formats (JSON and Prometheus) pick
// them up through the registry.
func (m *Manager) AttachMetrics(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appends = reg.Counter("durable.wal_appends")
	m.walBytes = reg.Counter("durable.wal_bytes")
	m.fsyncHist = reg.Histogram("durable.wal_fsync_seconds", obs.DefaultLatencyBuckets())
	m.snapHist = reg.Histogram("durable.snapshot_duration_seconds", obs.DefaultLatencyBuckets())
	m.snapCount = reg.Counter("durable.snapshots")
	m.replayedMx = reg.Gauge("durable.recovery_replayed_events")
	m.replayedMx.Set(float64(len(m.recovery.Events)))
}

// observeFsync feeds the fsync-latency histogram (called from the
// writer, under m.mu).
func (m *Manager) observeFsync(d time.Duration) {
	if m.fsyncHist != nil {
		m.fsyncHist.Observe(d.Seconds())
	}
}
