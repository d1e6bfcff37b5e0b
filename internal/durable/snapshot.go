package durable

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Snapshot file format: the snapshot magic ("TRCNSNP1") followed by one
// CRC32C frame whose payload is the JSON PlacerState — the same framing
// the WAL uses, so a torn snapshot (a crash mid-write) is detected the
// same way. Snapshots are written to a temp file, fsynced, and renamed
// into place; a reader never sees a half-written snapshot under its
// final name unless the rename itself was torn, which the CRC catches.

// WriteSnapshotFile atomically writes state to path on the OS filesystem.
func WriteSnapshotFile(path string, state *PlacerState) error {
	return writeSnapshotFS(OSFS{}, path, state)
}

// writeSnapshotFS atomically writes state to path through an injected FS.
func writeSnapshotFS(fsys FS, path string, state *PlacerState) error {
	buf, err := encodeFrame(snapMagic[:], state, maxSnapshot)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp, false)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// readSnapshot decodes one snapshot file's bytes.
func readSnapshot(data []byte) (*PlacerState, error) {
	if len(data) < len(snapMagic) || [8]byte(data[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	var state PlacerState
	if _, err := decodeFrame(data, int64(len(snapMagic)), maxSnapshot, &state); err != nil {
		if errors.Is(err, errTorn) {
			return nil, fmt.Errorf("%w: snapshot frame truncated", ErrCorrupt)
		}
		return nil, err
	}
	return &state, nil
}

// maxSnapshot bounds a snapshot payload (a full placement map at the
// default finished-ring cap is well under this).
const maxSnapshot = 1 << 30
