package experiments

import (
	"math"
	"testing"

	"tracon/internal/sched"
	"tracon/internal/workload"
)

// TestHierarchyMatchesAggregates: the § 4.8 manager hierarchy routes tasks
// round-robin, so each of four groups gets a quarter of a static batch,
// and the groups together complete every task.
func TestHierarchyMatchesAggregates(t *testing.T) {
	e := testEnv(t)
	batch := workload.NewMixer(13).Batch(workload.MediumIO, 64)
	tasks := make([]sched.Task, len(batch))
	for i, spec := range batch {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name), Arrival: float64(i)}
	}
	groups, err := e.hierarchy("mios", 1, 32, 4, tasks, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	submitted := 0
	for g, r := range groups {
		if r.Submitted != 16 {
			t.Fatalf("group %d got %d tasks", g, r.Submitted)
		}
		submitted += r.Submitted
	}
	if done := completed(groups); done != 64 || submitted != 64 {
		t.Fatalf("hierarchy completed %v submitted %d, want 64 and 64", done, submitted)
	}
}

// TestSpotCheckSameAtEveryWidth: the spot check's groups fan out over the
// Env's worker count, and its result does not depend on it.
func TestSpotCheckSameAtEveryWidth(t *testing.T) {
	e := testEnv(t)
	want, err := SpotCheck10k(e, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if want.FIFO == 0 || want.MIBS8 == 0 {
		t.Fatalf("spot check completed nothing: %+v", want)
	}
	for _, workers := range []int{2, 4} {
		wide := *e
		wide.workers = workers
		got, err := SpotCheck10k(&wide, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("spot check at %d workers = %+v, sequential %+v", workers, *got, *want)
		}
	}
}
