package obs

import "testing"

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("c_" + name).Add(3)
			r.Gauge("g_" + name).Set(7)
			r.Histogram("h_"+name, []float64{1, 10}).Observe(5)
		}
		return r
	}
	a := build([]string{"x", "y", "z"}).Snapshot()
	b := build([]string{"z", "x", "y"}).Snapshot()
	if len(a) != 9 || len(a) != len(b) {
		t.Fatalf("snapshot sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].Value != b[i].Value {
			t.Fatalf("snapshot order differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5}; ≤4: {3}; over: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.N != 5 || s.Mean() != 106.0/5 {
		t.Fatalf("n=%d mean=%v", s.N, s.Mean())
	}
	if g := (&Gauge{}); func() float64 { g.Set(3); g.Set(1); return g.Max() }() != 3 {
		t.Fatal("gauge max not retained")
	}
}
