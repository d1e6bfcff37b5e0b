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
	// FsyncInterval syncs at most once per configured interval, checked
	// on each append.
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

// encodeFrame appends one framed event to buf and returns the result.
func encodeFrame(buf []byte, ev Event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return buf, fmt.Errorf("durable: encoding event seq %d: %w", ev.Seq, err)
	}
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("durable: event seq %d encodes to %d bytes (frame cap %d)", ev.Seq, len(payload), maxFrame)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// walWriter appends framed events to one segment file.
type walWriter struct {
	f        File
	policy   FsyncPolicy
	interval time.Duration
	now      func() time.Time
	lastSync time.Time
	size     int64 // bytes written, including the magic header

	// onFsync reports each fsync's duration (metrics); may be nil.
	onFsync func(d time.Duration)
}

// createWAL creates a fresh segment file with its magic header synced.
func createWAL(fsys FS, path string, policy FsyncPolicy, interval time.Duration, now func() time.Time) (*walWriter, error) {
	f, err := fsys.Create(path, true)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
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
	if err := f.Truncate(goodSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil { // make the truncation durable
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
		if buf, err = encodeFrame(buf, ev); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(buf)
	w.size += int64(n)
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
	return err
}

func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// WALSegment is the result of reading one segment file.
type WALSegment struct {
	// Events are the decoded frames, in order.
	Events []Event
	// GoodSize is the byte offset just past the last valid frame; a torn
	// tail lives in [GoodSize, file size).
	GoodSize int64
	// Torn reports whether a torn tail was found (and where reading
	// stopped).
	Torn bool
}

// ReadWAL decodes one segment from r. firstSeq is the sequence number the
// segment must start with (0 skips the check, inferring the chain from
// the first frame). The returned segment's Torn flag marks a partial
// final frame — the caller decides whether that is acceptable (last
// segment) or mid-log corruption (any earlier segment).
func ReadWAL(r io.Reader, firstSeq uint64) (WALSegment, error) {
	var seg WALSegment
	data, err := io.ReadAll(r)
	if err != nil {
		return seg, err
	}
	if len(data) == 0 {
		// Zero bytes: a segment created but not yet through its header
		// write. Valid and empty; the tail (the header) is re-written.
		seg.Torn = true
		return seg, nil
	}
	if len(data) < len(walMagic) {
		seg.Torn = true // torn header
		return seg, nil
	}
	if [8]byte(data[:8]) != walMagic {
		return seg, fmt.Errorf("%w: bad magic header", ErrCorrupt)
	}
	off := int64(len(walMagic))
	seg.GoodSize = off
	expect := firstSeq
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return seg, nil
		}
		if len(rest) < frameHeader {
			seg.Torn = true
			return seg, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxFrame {
			return seg, fmt.Errorf("%w: frame at offset %d claims %d bytes", ErrCorrupt, off, length)
		}
		if int64(len(rest)) < frameHeader+int64(length) {
			seg.Torn = true // payload cut short by the crash
			return seg, nil
		}
		payload := rest[frameHeader : frameHeader+int64(length)]
		frameEnd := off + frameHeader + int64(length)
		if crc32.Checksum(payload, castTable) != crc {
			if frameEnd == int64(len(data)) {
				// The final frame's payload is complete but fails its CRC:
				// a torn overwrite of the tail. Truncate it.
				seg.Torn = true
				return seg, nil
			}
			return seg, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return seg, fmt.Errorf("%w: undecodable frame at offset %d: %v", ErrCorrupt, off, err)
		}
		if expect != 0 && ev.Seq != expect {
			return seg, fmt.Errorf("%w: got seq %d at offset %d, want %d", ErrBadSeq, ev.Seq, off, expect)
		}
		expect = ev.Seq + 1
		seg.Events = append(seg.Events, ev)
		seg.GoodSize = frameEnd
		off = frameEnd
	}
}

// ReadWALFile reads one segment file from the OS filesystem.
func ReadWALFile(path string, firstSeq uint64) (WALSegment, error) {
	return readWALFS(OSFS{}, path, firstSeq)
}

// readWALFS reads one segment file through an injected FS.
func readWALFS(fsys FS, path string, firstSeq uint64) (WALSegment, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return WALSegment{}, err
	}
	defer f.Close()
	return ReadWAL(f, firstSeq)
}
