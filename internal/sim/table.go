// Package sim is the discrete-event data-center simulator of Section 4.2:
// 8–10,000 physical machines, two VMs each, tasks arriving statically (one
// per VM) or dynamically (Poisson), schedulers assigning tasks to VMs, and
// ground-truth execution replayed from interference measurements — exactly
// the paper's methodology ("the simulator calculates the performance by
// using the actual statistics that have been measured in the real
// systems").
//
// When a task's co-runner changes mid-flight, its remaining work is
// rescaled to the new pairing's progress rate (the paper's 80%/20%
// example).
package sim

import (
	"fmt"
	"math"
	"sort"

	"tracon/internal/par"
	"tracon/internal/xen"
)

// InterferenceTable replays measured pairwise interference: for every
// ordered application pair, the progress rate (inverse slowdown) and
// throughput of the first while co-located with the second.
//
// Apps are interned once, at build time, so the engine's per-event lookups
// index slices. The table is immutable once built, so any number of
// concurrent simulations may read one shared instance; the parallel
// experiment runner relies on this.
type InterferenceTable struct {
	// apps is ordinal → name and ords name → ordinal: apps[0] is "", which
	// stands for no neighbour and for any app the table does not know (ords
	// has no entry, so it reads 0), and apps[1:] are the measured apps in
	// sorted order.
	apps []string
	ords map[string]int
	n    int
	// soloRT, soloIO and ops are by app ordinal; rate, iops and util by
	// a*n+b, for app a beside neighbour b. Column 0 is a running alone, and
	// row 0 answers for an unknown app.
	soloRT, soloIO, ops []float64
	rate, iops, util    []float64 // util: guest CPU + attributable Dom0
}

// BuildInterferenceTable measures every ordered pair (and every solo run)
// on the host model. For n applications this is n solo solves plus n·n
// pair solves.
func BuildInterferenceTable(host *xen.Host, apps []xen.AppSpec) (*InterferenceTable, error) {
	return BuildInterferenceTableParallel(host, apps, 1)
}

// BuildInterferenceTableParallel is BuildInterferenceTable with the solo
// and pair steady-state solves fanned out over at most workers goroutines.
// Each solve is an independent pure function of the host configuration, and
// results are collected by index before the table is filled, so the table
// is identical to the sequential build bit-for-bit.
func BuildInterferenceTableParallel(host *xen.Host, apps []xen.AppSpec, workers int) (*InterferenceTable, error) {
	n := len(apps)
	if n == 0 {
		return nil, fmt.Errorf("sim: no applications")
	}
	names, seen := []string{""}, map[string]bool{"": true}
	for _, a := range apps {
		if seen[a.Name] {
			return nil, fmt.Errorf("sim: duplicate or empty application name %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
	}
	sort.Strings(names[1:])

	solos := make([]xen.AppSteady, n)
	err := par.ForEach(workers, n, func(i int) error {
		st, err := host.Steady([]xen.AppSpec{apps[i]})
		if err != nil {
			return err
		}
		if math.IsInf(st[0].Runtime, 0) {
			return fmt.Errorf("sim: application %q never terminates", apps[i].Name)
		}
		solos[i] = st[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := n + 1 // ordinal 0 is no neighbour, or an unknown app
	t := &InterferenceTable{apps: names, ords: make(map[string]int, n), n: w,
		soloRT: make([]float64, w), soloIO: make([]float64, w), ops: make([]float64, w),
		rate: make([]float64, w*w), iops: make([]float64, w*w), util: make([]float64, w*w)}
	for o, name := range names[1:] {
		t.ords[name] = o + 1
	}
	for b := range w {
		t.rate[b] = 1 // an unknown app is not slowed
	}
	for i, a := range apps {
		o := t.ords[a.Name]
		t.soloRT[o], t.soloIO[o], t.ops[o] = solos[i].Runtime, solos[i].IOPS, a.TotalOps()
		t.rate[o*w], t.iops[o*w], t.util[o*w] = 1, solos[i].IOPS, solos[i].GuestCPU+solos[i].Dom0CPU
	}

	pairs := make([]xen.AppSteady, n*n)
	err = par.ForEach(workers, n*n, func(k int) error {
		a, b := apps[k/n], apps[k%n]
		b.Name = b.Name + "~peer"
		st, err := host.Steady([]xen.AppSpec{a, b})
		if err != nil {
			return err
		}
		pairs[k] = st[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, st := range pairs {
		o := t.ords[apps[k/n].Name]*w + t.ords[apps[k%n].Name]
		t.rate[o], t.iops[o], t.util[o] = st.ProgressRate, st.IOPS, st.GuestCPU+st.Dom0CPU
	}
	return t, nil
}

// pair returns the rate/iops/util index of app beside neighbour.
func (t *InterferenceTable) pair(app, neighbour string) int {
	return t.ords[app]*t.n + t.ords[neighbour]
}

// Apps returns the application names, sorted.
func (t *InterferenceTable) Apps() []string {
	return append([]string(nil), t.apps[1:]...)
}

// Has reports whether the table knows app.
func (t *InterferenceTable) Has(app string) bool { return t.ords[app] > 0 }

// SoloRuntime returns the measured no-interference runtime of app.
func (t *InterferenceTable) SoloRuntime(app string) float64 { return t.soloRT[t.ords[app]] }

// SoloIOPS returns the measured no-interference throughput of app.
func (t *InterferenceTable) SoloIOPS(app string) float64 { return t.soloIO[t.ords[app]] }

// Ops returns the total I/O request count of one task of app.
func (t *InterferenceTable) Ops(app string) float64 { return t.ops[t.ords[app]] }

// Rate returns app's progress rate (solo-seconds per wall second, in
// (0, 1]) while co-located with neighbour ("" = running alone).
func (t *InterferenceTable) Rate(app, neighbour string) float64 {
	return t.rate[t.pair(app, neighbour)]
}

// Util returns the CPU utilization (guest vCPU plus attributable Dom0
// work) app drives while co-located with neighbour — the basis of the
// simulator's energy accounting.
func (t *InterferenceTable) Util(app, neighbour string) float64 {
	return t.util[t.pair(app, neighbour)]
}

// IOPS returns app's throughput while co-located with neighbour.
func (t *InterferenceTable) IOPS(app, neighbour string) float64 {
	return t.iops[t.pair(app, neighbour)]
}
