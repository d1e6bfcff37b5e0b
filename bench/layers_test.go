package main

import (
	"errors"
	"testing"

	"tracon/internal/durable"
)

// failingFS hands out files whose Sync fails, over an in-memory filesystem.
type failingFS struct {
	*durable.MemFS
	err error
}

func (f failingFS) Create(name string, excl bool) (durable.File, error) {
	file, err := f.MemFS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return failingFile{File: file, err: f.err}, nil
}

type failingFile struct {
	durable.File
	err error
}

func (f failingFile) Sync() error { return f.err }

func TestCountingFS(t *testing.T) {
	cfs := &countingFS{FS: durable.NewMemFS()}
	if err := cfs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := cfs.Create("d/a", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if n, err := f.Write([]byte(chunk)); err != nil || n != len(chunk) {
			t.Fatalf("Write: %d, %v", n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c := cfs.counts()
	if c.writes != 2 || c.bytes != 11 || c.syncs != 1 || len(c.syncTimes) != 1 {
		t.Errorf("counts %+v, want 2 writes, 11 bytes, 1 sync", c)
	}
	if busy, calls := cfs.drainBusy(); calls != 3 || busy <= 0 {
		t.Errorf("drainBusy = %v over %d calls, want 3 calls", busy, calls)
	}
	if busy, calls := cfs.drainBusy(); calls != 0 || busy != 0 {
		t.Errorf("second drainBusy = %v over %d calls, want nothing", busy, calls)
	}
	if _, err := cfs.Create("d/a", true); err == nil {
		t.Error("exclusive Create of an existing file succeeded through the wrapper")
	}
	g, err := cfs.OpenWrite("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if c := cfs.counts(); c.writes != 3 || c.bytes != 12 {
		t.Errorf("after OpenWrite: %+v", c)
	}

	boom := errors.New("disk on fire")
	bad := &countingFS{FS: failingFS{MemFS: durable.NewMemFS(), err: boom}}
	h, err := bad.Create("x", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync error %v, want %v forwarded", err, boom)
	}
	if c := bad.counts(); c.syncs != 1 {
		t.Errorf("a failed sync was not counted: %+v", c)
	}
}

// The timing decorators must forward results and errors unchanged.
func TestTimedPredictor(t *testing.T) {
	lib, _, err := trainLibrary()
	if err != nil {
		t.Fatal(err)
	}
	p := &timedPredictor{Predictor: lib}
	apps := lib.Apps()
	want, err := lib.PredictRuntime(apps[0], apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.PredictRuntime(apps[0], apps[1]); err != nil || got != want {
		t.Errorf("PredictRuntime through the decorator = %v, %v; want %v", got, err, want)
	}
	if _, err := p.PredictIOPS("no-such-app", ""); err == nil {
		t.Error("an unknown application's error was swallowed")
	}
	if d, calls := p.drain(); calls != 2 || d <= 0 {
		t.Errorf("drain = %v over %d calls, want 2", d, calls)
	}
}
