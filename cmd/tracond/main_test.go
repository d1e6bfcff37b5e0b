package main

import (
	"bytes"
	"testing"

	"tracon/internal/model"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// TestTrainLibraryMatchesBuildLibrary: the daemon's parallel bring-up and
// the sequential model.BuildLibrary persist the same NLM library, byte for
// byte.
func TestTrainLibraryMatchesBuildLibrary(t *testing.T) {
	const seed = 7
	tr, err := trainLibrary(model.NLM, seed)
	if err != nil {
		t.Fatal(err)
	}
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	var bgs, specs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, w.Spec)
	}
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	lib, err := model.BuildLibrary(xen.NewTestbed(host, 3, 0.05, seed), specs, bgs, model.NLM)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := tr.lib.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := lib.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("trainLibrary persisted %d bytes, BuildLibrary %d; they differ", got.Len(), want.Len())
	}
	if len(tr.sets) != len(specs) || len(tr.solos) != len(specs) {
		t.Fatalf("trainer kept %d sets and %d solos, want %d", len(tr.sets), len(tr.solos), len(specs))
	}
}
