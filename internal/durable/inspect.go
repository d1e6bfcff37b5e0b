package durable

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Offline journal inspection, shared by tracontrace's -wal-dump and
// -wal-verify modes. Both accept either a single file (one segment or
// one snapshot, by magic) or a whole data directory, which they read
// through recovery's own scan in its strict mode: a directory that
// passes would boot, and every file it retains reads clean.

// Dump renders every record in path (file or data dir) to w,
// human-readably, and returns the number of events printed.
func Dump(w io.Writer, path string) (int, error) {
	total := 0
	_, err := inspect(path, func(name string, snap *PlacerState, seg *walSegment) {
		if snap != nil {
			fmt.Fprintf(w, "%s: snapshot seq=%d machines=%d queue=%d placements=%d done=%d rejected=%d\n",
				name, snap.Seq, len(snap.Machines), len(snap.Queue), len(snap.Placements), len(snap.Done), snap.Rejected)
			return
		}
		note := ""
		if seg.Torn {
			note = " (torn tail)"
		}
		fmt.Fprintf(w, "%s: %d events, %d good bytes%s\n", name, len(seg.Events), seg.GoodSize, note)
		for _, ev := range seg.Events {
			fmt.Fprintln(w, ev.String())
			total++
		}
	})
	return total, err
}

// VerifyResult summarizes a -wal-verify pass.
type VerifyResult struct {
	Snapshots int
	Segments  int
	Events    int
	LastSeq   uint64
	TornTail  bool
}

// Verify checks every record in path (file or data dir): snapshot CRCs,
// frame CRCs, and — for a directory — everything recovery checks plus
// the files it passes over: every snapshot decodes under its own name's
// seq, and every segment reads clean and chains onto its predecessor. It
// returns the first integrity error found.
func Verify(path string) (VerifyResult, error) {
	var res VerifyResult
	sc, err := inspect(path, func(_ string, snap *PlacerState, seg *walSegment) {
		if snap != nil {
			res.Snapshots++
			return
		}
		res.Segments++
		res.Events += len(seg.Events)
	})
	res.LastSeq, res.TornTail = sc.lastSeq, sc.info.TornTail
	return res, err
}

// inspect reads path — a data directory through a strict scan, or one
// segment or snapshot file on its own — and hands every file to visit.
func inspect(path string, visit visitFunc) (dirScan, error) {
	info, err := os.Stat(path)
	if err != nil {
		return dirScan{}, err
	}
	if info.IsDir() {
		sc, err := scanDir(OSFS{}, path, visit)
		if err == nil && sc.info.Snapshot == nil && sc.live.name == "" {
			err = fmt.Errorf("durable: no journal files in %s", path)
		}
		return sc, err
	}
	var sc dirScan
	name := filepath.Base(path)
	data, err := readFile(OSFS{}, path)
	if err != nil {
		return sc, err
	}
	if bytes.HasPrefix(data, snapMagic[:]) {
		state, err := readSnapshot(data)
		if err != nil {
			return sc, fmt.Errorf("%s: %w", name, err)
		}
		sc.lastSeq = state.Seq
		visit(name, state, nil)
		return sc, nil
	}
	seg, err := readWAL(data, 0)
	if err != nil {
		return sc, fmt.Errorf("%s: %w", name, err)
	}
	if n := len(seg.Events); n > 0 {
		sc.lastSeq = seg.Events[n-1].Seq
	}
	sc.info.TornTail = seg.Torn
	visit(name, nil, &seg)
	return sc, nil
}
