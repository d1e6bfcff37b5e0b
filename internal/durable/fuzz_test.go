package durable

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALReader throws arbitrary bytes at the segment reader and checks
// the recovery invariants no input may break:
//
//   - the only error types are ErrCorrupt and ErrBadSeq (never a panic, an
//     allocation blow-up or an unwrapped decode error);
//   - GoodSize never exceeds the input and always lands on a frame
//     boundary: re-reading the good prefix yields the same events, clean.
//
// Each input, behind the snapshot magic, also goes to the snapshot
// reader, which shares the frame decoder: its only error is ErrCorrupt,
// and a snapshot that decodes round-trips through re-encoding.
func FuzzWALReader(f *testing.F) {
	evs := []Event{
		{Seq: 1, Kind: EvAdmit, Task: "t-1", App: "sort", Machine: -1, Slot: -1},
		{Seq: 2, Kind: EvPlace, Task: "t-1", App: "sort", Machine: 0, Slot: 1, Neighbour: "grep", PredRT: 1.5, Gen: 1},
		{Seq: 3, Kind: EvKill, Machine: 2, Slot: -1, Tasks: []TaskRef{{Task: "t-1", App: "sort"}}},
	}
	valid := append([]byte{}, walMagic[:]...)
	for _, ev := range evs {
		var err error
		if valid, err = encodeFrame(valid, ev, maxFrame); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add(walMagic[:])
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte{}, valid...)
	flipped[len(walMagic)+frameHeader+4] ^= 0x10 // mid-log corruption
	f.Add(flipped)
	snap, err := encodeFrame(nil, &PlacerState{
		Seq: 3, NextID: 2, Queue: []string{"t-1"},
		Machines:   []MachineState{{State: "up", Slots: []SlotState{{Task: "t-2", App: "grep"}, {}}}},
		Placements: []PlacementState{{ID: "t-1", App: "sort", Status: "queued", Machine: -1, Slot: -1}},
	}, maxSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap) // a snapshot frame, once behind the snapshot magic

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDecode(t, append(append([]byte{}, snapMagic[:]...), data...))

		seg, err := readWAL(data, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadSeq) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if seg.GoodSize > int64(len(data)) {
			t.Fatalf("GoodSize %d beyond input %d", seg.GoodSize, len(data))
		}
		if len(seg.Events) > 0 && seg.GoodSize < int64(len(walMagic)) {
			t.Fatalf("%d events but GoodSize %d", len(seg.Events), seg.GoodSize)
		}
		if seg.GoodSize >= int64(len(walMagic)) {
			again, err := readWAL(data[:seg.GoodSize], 0)
			if err != nil {
				t.Fatalf("good prefix re-read failed: %v", err)
			}
			if again.Torn {
				t.Fatal("good prefix re-read reported torn")
			}
			if len(again.Events) != len(seg.Events) {
				t.Fatalf("good prefix re-read: %d events, first pass had %d", len(again.Events), len(seg.Events))
			}
			for i := range again.Events {
				if again.Events[i].Seq != seg.Events[i].Seq || again.Events[i].Kind != seg.Events[i].Kind {
					t.Fatalf("event %d diverged on re-read", i)
				}
			}
		}
	})
}

// checkSnapshotDecode feeds data to the snapshot reader: any error must
// be ErrCorrupt, and a clean decode must round-trip — its re-encoding
// decodes, and encodes again to the same bytes.
func checkSnapshotDecode(t *testing.T, data []byte) {
	t.Helper()
	state, err := readSnapshot(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot: untyped error: %v", err)
		}
		return
	}
	enc, err := encodeFrame(append([]byte{}, snapMagic[:]...), state, maxSnapshot)
	if err != nil {
		t.Fatalf("snapshot: re-encoding a decoded state: %v", err)
	}
	again, err := readSnapshot(enc)
	if err != nil {
		t.Fatalf("snapshot: re-encoded state does not decode: %v", err)
	}
	if enc2, _ := encodeFrame(append([]byte{}, snapMagic[:]...), again, maxSnapshot); !bytes.Equal(enc2, enc) {
		t.Fatalf("snapshot: round trip diverged:\n%s\n%s", enc, enc2)
	}
}
