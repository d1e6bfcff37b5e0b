package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"

	"tracon/internal/workload"
	"tracon/internal/xen"
)

// bringUpGolden pins the whole § 3.1 bring-up at seed 1: the profiling
// sweep's output (every training-set row and every solo profile) and the
// three Fig 3/4 libraries trained from it. The testbed solve and the fits
// may be made faster, never different; a change here is a result change.
// WMM is instance-based and cannot Save, so its entry hashes every
// prediction the library serves instead.
var bringUpGolden = map[string]string{
	"profile": "b2c1b6950f49971de8b11aa63cf4a3c7eed48bcbb8e1eabc8b4f352afe12a66b",
	"WMM":     "057dcb1e2303ed3311b37ae879025eee1d950495f6a92b2023c124cb2d93c4a1",
	"LM":      "26775f06972193e364aeb6505867db527f3a34ee077fa940b34da15d447bf810",
	"NLM":     "1e2a2d8b61fa68d8384e57ff4fdcd11d1ecc90f492b2376835c2c2ed0737b0ec",
}

// bringUpInputs returns the daemon's bring-up inputs: the seed-1 testbed,
// the eight Table 3 benchmarks and the full 125-point synthetic grid.
func bringUpInputs(tb testing.TB) (*xen.Testbed, []xen.AppSpec, []xen.AppSpec) {
	tb.Helper()
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		tb.Fatal(err)
	}
	var targets, bgs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		targets = append(targets, b.Spec)
	}
	for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, w.Spec)
	}
	return xen.NewTestbed(host, 3, 0.05, 1), targets, bgs
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// profileHash digests ProfileAll's output bit for bit.
func profileHash(sets []*TrainingSet, solos []xen.SoloProfile) string {
	h := sha256.New()
	for i, ts := range sets {
		h.Write([]byte(ts.App))
		hashFloats(h, ts.Features...)
		for _, s := range ts.Samples {
			hashFloats(h, s.BG...)
			hashFloats(h, s.Runtime, s.IOPS)
		}
		p := solos[i]
		hashFloats(h, p.Runtime, p.ReadPerSec, p.WritePerSec, p.DomUCPU, p.Dom0CPU, p.IOPS)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// libraryHash digests a trained library: its Save bytes, or for an
// instance-based family every runtime and IOPS prediction it serves
// (each app against each app and an idle neighbour) plus its solos.
func libraryHash(t testing.TB, lib *Library) string {
	t.Helper()
	h := sha256.New()
	var buf bytes.Buffer
	if err := lib.Save(&buf); err == nil {
		h.Write(buf.Bytes())
		return hex.EncodeToString(h.Sum(nil))
	}
	apps := lib.Apps()
	for _, target := range apps {
		h.Write([]byte(target))
		rt, err := lib.SoloRuntime(target)
		if err != nil {
			t.Fatal(err)
		}
		io, err := lib.SoloIOPS(target)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, rt, io)
		for _, co := range append([]string{""}, apps...) {
			rt, err := lib.PredictRuntime(target, co)
			if err != nil {
				t.Fatal(err)
			}
			io, err := lib.PredictIOPS(target, co)
			if err != nil {
				t.Fatal(err)
			}
			hashFloats(h, rt, io)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBringUpGolden: the seed-1 bring-up, profile and libraries, hashes to
// the pinned digests at one, two and eight profiling workers and at one,
// two and eight fitting workers. Short mode profiles at eight only.
func TestBringUpGolden(t *testing.T) {
	tb, targets, bgs := bringUpInputs(t)
	var sets []*TrainingSet
	var solos []xen.SoloProfile
	profileWorkers := []int{1, 2, 8}
	if testing.Short() {
		profileWorkers = []int{8}
	}
	for _, workers := range profileWorkers {
		var err error
		sets, solos, err = ProfileAll(tb, targets, bgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := profileHash(sets, solos); got != bringUpGolden["profile"] {
			t.Errorf("profile at %d workers: sha256 %s, golden %s", workers, got, bringUpGolden["profile"])
		}
	}
	for _, k := range Kinds() {
		for _, workers := range []int{1, 2, 8} {
			lib, err := TrainLibrary(k, sets, solos, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := libraryHash(t, lib); got != bringUpGolden[k.String()] {
				t.Errorf("%v library at %d workers: sha256 %s, golden %s", k, workers, got, bringUpGolden[k.String()])
			}
		}
	}
}

// TestTrainLibraryErrorAtAnyWorkerCount: when fits fail, TrainLibrary
// returns the lowest-indexed failure, the same at one and eight workers,
// and no partial library.
func TestTrainLibraryErrorAtAnyWorkerCount(t *testing.T) {
	tss, _ := fixture(t)
	sets := []*TrainingSet{tss["blastn"], {App: "empty-1"}, tss["video"], {App: "empty-3"}, tss["blastp"]}
	solos := make([]xen.SoloProfile, len(sets))
	var want string
	for _, workers := range []int{1, 8} {
		lib, err := TrainLibrary(NLM, sets, solos, workers)
		if !errors.Is(err, ErrTooFewSamples) {
			t.Fatalf("%d workers: error %v, want ErrTooFewSamples", workers, err)
		}
		if lib != nil {
			t.Fatalf("%d workers: partial library of %v returned with the error", workers, lib.Apps())
		}
		if workers == 1 {
			want = err.Error()
			if !strings.Contains(want, "empty-1") {
				t.Fatalf("error %q does not name the first failing set", want)
			}
		} else if err.Error() != want {
			t.Fatalf("%d workers: error %q, 1 worker: %q", workers, err, want)
		}
	}
}

// TestProfileAllAllocs: the seed-1 profiling sweep allocates per
// measurement, not per solver iteration.
func TestProfileAllAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("counts allocations of two full sweeps")
	}
	tb, targets, bgs := bringUpInputs(t)
	got := testing.AllocsPerRun(1, func() {
		if _, _, err := ProfileAll(tb, targets, bgs, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per ProfileAll", got)
	if got > 11000 {
		t.Errorf("%.0f allocs per ProfileAll at 1 worker, ceiling 11000", got)
	}
}

// BenchmarkProfileAll times the seed-1 profiling sweep (8 benchmarks ×
// 125 backgrounds, plus solos) at one worker.
func BenchmarkProfileAll(b *testing.B) {
	tb, targets, bgs := bringUpInputs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProfileAll(tb, targets, bgs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainLibrary times fitting each Fig 3/4 family to the seed-1
// profile, one app at a time and one app per core.
func BenchmarkTrainLibrary(b *testing.B) {
	tb, targets, bgs := bringUpInputs(b)
	sets, solos, err := ProfileAll(tb, targets, bgs, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range Kinds() {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%v/workers=%d", k, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := TrainLibrary(k, sets, solos, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
