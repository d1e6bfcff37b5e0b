package model

import (
	"reflect"
	"sync"
	"testing"

	"tracon/internal/workload"
	"tracon/internal/xen"
)

// TestLibraryConcurrentPredict hammers one shared Library from many
// goroutines — the read path every concurrent simulation of the parallel
// experiment runner exercises — while another goroutine keeps swapping a
// model in via Replace (the adaptive retraining path). Run under -race
// this proves the Library's synchronization; it also checks reads stay
// deterministic (Replace installs an identically trained model, so every
// prediction must keep returning the same value).
func TestLibraryConcurrentPredict(t *testing.T) {
	tss, tb := fixture(t)

	lib := NewLibrary(WMM) // cheapest family to train; locking is shared code
	apps := []string{"blastn", "blastp", "video"}
	for _, app := range apps {
		solo, err := tb.ProfileSolo(mustSpec(t, app))
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Add(tss[app], solo); err != nil {
			t.Fatal(err)
		}
	}
	replacement, err := Train(tss["blastn"], WMM)
	if err != nil {
		t.Fatal(err)
	}

	want := map[[2]string]float64{}
	for _, a := range apps {
		for _, b := range append([]string{""}, apps...) {
			rt, err := lib.PredictRuntime(a, b)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]string{a, b}] = rt
		}
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // writer: adaptive retraining swaps models in
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := lib.Replace("blastn", replacement); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				a := apps[(g+iter)%len(apps)]
				b := apps[iter%len(apps)]
				rt, err := lib.PredictRuntime(a, b)
				if err != nil {
					t.Error(err)
					return
				}
				if rt != want[[2]string{a, b}] {
					t.Errorf("PredictRuntime(%s,%s) = %v, want %v", a, b, rt, want[[2]string{a, b}])
					return
				}
				if _, err := lib.PredictIOPS(a, ""); err != nil {
					t.Error(err)
					return
				}
				if _, err := lib.SoloRuntime(a); err != nil {
					t.Error(err)
					return
				}
				if _, err := lib.Features(a); err != nil {
					t.Error(err)
					return
				}
				lib.Apps()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}

// TestTestbedConcurrentMeasurement asserts the xen.Testbed contract the
// parallel profiler leans on: concurrent measurements on one testbed (and
// on same-seed clones) reproduce sequential measurements exactly, because
// the noise stream is key-addressed rather than call-order-addressed.
func TestTestbedConcurrentMeasurement(t *testing.T) {
	_, tb := fixture(t)
	target := mustSpec(t, "blastn")
	bg := mustSpec(t, "video")

	ref, err := tb.MeasureAgainstBackground(target, bg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wtb := tb
			if g%2 == 0 {
				wtb = tb.Clone()
			}
			for i := 0; i < 20; i++ {
				m, err := wtb.MeasureAgainstBackground(target, bg)
				if err != nil {
					t.Error(err)
					return
				}
				if m != ref {
					t.Errorf("concurrent measurement %+v differs from sequential %+v", m, ref)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func mustSpec(t *testing.T, name string) xen.AppSpec {
	t.Helper()
	b, err := workload.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Spec
}

// TestProfileAllWorkerCountInvariant: the bring-up's profiling stage
// returns the same training sets and solo profiles, in target order, at
// one, two and eight workers.
func TestProfileAllWorkerCountInvariant(t *testing.T) {
	_, tb := fixture(t)
	var targets, bgs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		targets = append(targets, b.Spec)
	}
	for i, w := range workload.ProfilingWorkloads(tb.Host().Config().Disk) {
		if i%5 == 0 { // a fifth of the grid keeps the test quick
			bgs = append(bgs, w.Spec)
		}
	}
	wantSets, wantSolos, err := ProfileAll(tb, targets, bgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range wantSets {
		if ts.App != targets[i].Name {
			t.Fatalf("set %d is %q, want %q", i, ts.App, targets[i].Name)
		}
	}
	for _, workers := range []int{2, 8} {
		sets, solos, err := ProfileAll(tb, targets, bgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sets, wantSets) || !reflect.DeepEqual(solos, wantSolos) {
			t.Fatalf("ProfileAll at %d workers differs from the sequential profile", workers)
		}
	}
}
