package xen

import "testing"

func cloneApp() AppSpec {
	return AppSpec{
		Name: "clone-target", CPUSeconds: 50,
		ReadOps: 50000, WriteOps: 5000,
		ReqSizeKB: 16, Seq: 0.7, MaxIODepth: 2,
	}
}

func cloneBG() AppSpec {
	return AppSpec{
		Name: "clone-bg", CPUSeconds: 80,
		ReadOps: 80000, WriteOps: 8000,
		ReqSizeKB: 16, Seq: 0.5, MaxIODepth: 2,
	}
}

func TestCloneReproducesMeasurements(t *testing.T) {
	h, err := NewHost(DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(h, 3, 0.05, 7)
	want, err := tb.MeasureAgainstBackground(cloneApp(), cloneBG())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Clone().MeasureAgainstBackground(cloneApp(), cloneBG())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("clone measurement %+v differs from original %+v", got, want)
	}
	if tb.Clone().seed != tb.seed {
		t.Error("clone changed the seed")
	}
}
