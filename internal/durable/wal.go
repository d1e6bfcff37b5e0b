package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// WAL file format:
//
//	magic   8 bytes  "TRCNWAL1"
//	frame*  each: length uint32 LE | crc32c uint32 LE | payload (JSON Event)
//
// The CRC covers the payload only. Frames carry strictly consecutive
// sequence numbers; the reader verifies the chain. A torn tail — the
// partial frame a crash mid-write leaves behind — is detected and
// truncated away; corruption anywhere before the tail (a flipped byte
// with intact frames after it) is rejected with ErrCorrupt, because
// silently skipping it would replay a state the daemon never held.

// Typed journal errors.
var (
	// ErrCorrupt marks mid-log corruption: a frame that fails its CRC,
	// decode or size sanity check while valid data follows it, or a file
	// with a bad magic header.
	ErrCorrupt = errors.New("durable: corrupt journal")
	// ErrBadSeq marks a broken sequence chain: an event whose Seq is not
	// its predecessor's + 1.
	ErrBadSeq = errors.New("durable: broken sequence chain")
)

var (
	walMagic  = [8]byte{'T', 'R', 'C', 'N', 'W', 'A', 'L', '1'}
	snapMagic = [8]byte{'T', 'R', 'C', 'N', 'S', 'N', 'P', '1'}
	castTable = crc32.MakeTable(crc32.Castagnoli)
)

// maxFrame bounds one frame's payload; a length field above it is read
// as corruption, not as an instruction to allocate gigabytes.
const maxFrame = 16 << 20

const frameHeader = 8 // length + crc

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs every append before it returns.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per configured interval, on the
	// append that finds it elapsed or on the daemon's timer (SyncDue).
	FsyncInterval
	// FsyncNever leaves syncing to the OS (and explicit Sync calls).
	FsyncNever
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or never)", s)
}

// encodeFrame marshals v and appends it to buf as one frame: length,
// CRC32C of the payload, payload. WAL events and the snapshot share it.
func encodeFrame(buf []byte, v any, limit int) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("durable: encoding %T: %w", v, err)
	}
	if len(payload) > limit {
		return buf, fmt.Errorf("durable: %T encodes to %d bytes (frame cap %d)", v, len(payload), limit)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castTable))
	return append(buf, payload...), nil
}

// errTorn marks a frame a crash cut short: the data ends inside it, or it
// is the final frame and fails its CRC (a torn overwrite of the tail).
var errTorn = errors.New("durable: torn frame")

// decodeFrame decodes the frame at data[off:] into v and returns the
// offset just past it. A frame with valid data after it that fails its
// CRC, claims more than limit bytes or does not decode is ErrCorrupt.
func decodeFrame(data []byte, off int64, limit uint32, v any) (int64, error) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return off, errTorn
	}
	length := binary.LittleEndian.Uint32(rest[0:4])
	if length > limit {
		return off, fmt.Errorf("%w: frame at offset %d claims %d bytes", ErrCorrupt, off, length)
	}
	end := off + frameHeader + int64(length)
	if end > int64(len(data)) {
		return off, errTorn
	}
	payload := data[off+frameHeader : end]
	if crc32.Checksum(payload, castTable) != binary.LittleEndian.Uint32(rest[4:8]) {
		if end == int64(len(data)) {
			return off, errTorn
		}
		return off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return off, fmt.Errorf("%w: undecodable frame at offset %d: %v", ErrCorrupt, off, err)
	}
	return end, nil
}

// readFile reads one whole journal file through fsys.
func readFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// walWriter appends framed events to one segment file.
type walWriter struct {
	f        File
	policy   FsyncPolicy
	interval time.Duration
	now      func() time.Time
	lastSync time.Time
	size     int64 // bytes written, including the magic header
	dirty    bool  // bytes written since the last successful sync

	// onFsync reports each fsync's duration (metrics); may be nil.
	onFsync func(d time.Duration)
}

// createWAL creates a fresh segment file with its magic header synced.
func createWAL(fsys FS, path string, policy FsyncPolicy, interval time.Duration, now func() time.Time) (*walWriter, error) {
	f, err := fsys.Create(path, true)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(walMagic[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{
		f: f, policy: policy, interval: interval, now: now,
		lastSync: now(), size: int64(len(walMagic)),
	}, nil
}

// openWALForAppend opens an existing segment, truncates it at goodSize
// (discarding a torn tail) and positions the writer at its end.
func openWALForAppend(fsys FS, path string, goodSize int64, policy FsyncPolicy, interval time.Duration, now func() time.Time) (*walWriter, error) {
	f, err := fsys.OpenWrite(path)
	if err != nil {
		return nil, err
	}
	if err = f.Truncate(goodSize); err == nil {
		_, err = f.Seek(goodSize, io.SeekStart)
	}
	if err == nil {
		err = f.Sync() // make the truncation durable
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{
		f: f, policy: policy, interval: interval, now: now,
		lastSync: now(), size: goodSize,
	}, nil
}

// append writes the events as one contiguous run of frames and applies
// the fsync policy once for the whole group — a multi-event commit point
// (a batch admit plus its placements) costs one sync, not one per event.
func (w *walWriter) append(evs []Event) (bytes int64, err error) {
	var buf []byte
	for _, ev := range evs {
		if buf, err = encodeFrame(buf, ev, maxFrame); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(buf)
	w.size += int64(n)
	w.dirty = true
	if err != nil {
		return int64(n), err
	}
	switch w.policy {
	case FsyncAlways:
		err = w.sync()
	case FsyncInterval:
		if w.now().Sub(w.lastSync) >= w.interval {
			err = w.sync()
		}
	}
	return int64(len(buf)), err
}

// sync flushes to stable storage and reports the duration.
func (w *walWriter) sync() error {
	t0 := w.now()
	err := w.f.Sync()
	if w.onFsync != nil {
		w.onFsync(w.now().Sub(t0))
	}
	w.lastSync = w.now()
	w.dirty = w.dirty && err != nil
	return err
}

func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walSegment is one segment file as read.
type walSegment struct {
	// Events are the decoded frames, in order.
	Events []Event
	// GoodSize is the byte offset just past the last valid frame; a torn
	// tail lives in [GoodSize, file size).
	GoodSize int64
	// Torn reports whether a torn tail was found (and where reading
	// stopped).
	Torn bool
}

// readWAL decodes one segment file's bytes. firstSeq is the sequence
// number the segment must start with (0 skips the check, inferring the
// chain from the first frame). The returned segment's Torn flag marks a
// partial final frame — the caller decides whether that is acceptable
// (last segment) or mid-log corruption (any earlier segment).
func readWAL(data []byte, firstSeq uint64) (walSegment, error) {
	var seg walSegment
	if len(data) < len(walMagic) {
		// Zero bytes or part of the header: a segment created but not yet
		// through its header write. Valid and empty; the header is
		// re-written.
		seg.Torn = true
		return seg, nil
	}
	if [8]byte(data[:8]) != walMagic {
		return seg, fmt.Errorf("%w: bad magic header", ErrCorrupt)
	}
	seg.GoodSize = int64(len(walMagic))
	expect := firstSeq
	for seg.GoodSize < int64(len(data)) {
		var ev Event
		end, err := decodeFrame(data, seg.GoodSize, maxFrame, &ev)
		if errors.Is(err, errTorn) {
			seg.Torn = true
			return seg, nil
		}
		if err != nil {
			return seg, err
		}
		if expect != 0 && ev.Seq != expect {
			return seg, fmt.Errorf("%w: got seq %d at offset %d, want %d", ErrBadSeq, ev.Seq, seg.GoodSize, expect)
		}
		expect = ev.Seq + 1
		seg.Events = append(seg.Events, ev)
		seg.GoodSize = end
	}
	return seg, nil
}
