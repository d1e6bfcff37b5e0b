package sim

import (
	"reflect"
	"testing"

	"tracon/internal/workload"
	"tracon/internal/xen"
)

// TestParallelTableMatchesSequential asserts the headline guarantee of the
// parallel build: same host, same apps, any worker count — the exact same
// table, down to the last bit.
func TestParallelTableMatchesSequential(t *testing.T) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	seq := table(t) // the shared sequential fixture over the same specs

	for _, workers := range []int{2, 4, 16} {
		p, err := BuildInterferenceTableParallel(host, specs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(p, seq) {
			t.Fatalf("workers=%d: the table differs from the sequential build", workers)
		}
	}
}

func TestParallelTableRejectsBadInput(t *testing.T) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildInterferenceTableParallel(host, nil, 4); err == nil {
		t.Error("empty app set must fail")
	}
	b, err := workload.BenchmarkByName("blastn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildInterferenceTableParallel(host, []xen.AppSpec{b.Spec, b.Spec}, 4); err == nil {
		t.Error("duplicate app must fail")
	}
}
