package sim

import (
	"fmt"

	"tracon/internal/sched"
)

// Workflow (DAG) support. The paper's subject is data-intensive scientific
// workflows; its evaluation uses independent tasks, but the framework is
// pitched at workflow systems (pSciMapper is the closest related work).
// The engine therefore honours Task.DependsOn: a task becomes schedulable
// only once all of its dependencies have completed, so whole pipelines
// (e.g. sequence-search → mining → dedup stages) can be pushed through an
// interference-aware cluster.

// depState tracks the dependency bookkeeping of one run.
type depState struct {
	unmet      map[int64]int     // task ID → number of incomplete deps
	dependents map[int64][]int64 // task ID → tasks waiting on it
	held       map[int64]heldTask
	done       map[int64]bool
}

type heldTask struct {
	task    taskRef
	arrived bool
}

// taskRef aliases the scheduler task type for readability.
type taskRef = sched.Task

// validateDAG checks that every dependency references a submitted task and
// that the dependency graph is acyclic (Kahn's algorithm). It returns the
// prepared depState (nil when no task has dependencies — the common,
// paper-faithful case costs nothing).
func validateDAG(tasks []taskRef) (*depState, error) {
	// Independent tasks with strictly increasing IDs — what every generator
	// emits — are unique by construction and need no ID map.
	simple := true
	for i, t := range tasks {
		if len(t.DependsOn) > 0 || (i > 0 && t.ID <= tasks[i-1].ID) {
			simple = false
			break
		}
	}
	if simple {
		return nil, nil
	}
	hasDeps := false
	ids := make(map[int64]bool, len(tasks))
	for _, t := range tasks {
		if ids[t.ID] {
			return nil, fmt.Errorf("sim: duplicate task ID %d", t.ID)
		}
		ids[t.ID] = true
		if len(t.DependsOn) > 0 {
			hasDeps = true
		}
	}
	if !hasDeps {
		return nil, nil
	}
	ds := &depState{
		unmet:      map[int64]int{},
		dependents: map[int64][]int64{},
		held:       map[int64]heldTask{},
		done:       map[int64]bool{},
	}
	indeg := map[int64]int{}
	for _, t := range tasks {
		for _, d := range t.DependsOn {
			if !ids[d] {
				return nil, fmt.Errorf("sim: task %d depends on unknown task %d", t.ID, d)
			}
			if d == t.ID {
				return nil, fmt.Errorf("sim: task %d depends on itself", t.ID)
			}
			ds.unmet[t.ID]++
			ds.dependents[d] = append(ds.dependents[d], t.ID)
			indeg[t.ID]++
		}
	}
	// Kahn's algorithm for cycle detection.
	var frontier []int64
	for _, t := range tasks {
		if indeg[t.ID] == 0 {
			frontier = append(frontier, t.ID)
		}
	}
	visited := 0
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		visited++
		for _, dep := range ds.dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				frontier = append(frontier, dep)
			}
		}
	}
	if visited != len(tasks) {
		return nil, fmt.Errorf("sim: dependency cycle among submitted tasks")
	}
	return ds, nil
}

// ready reports whether the task can enter the scheduling queue now.
func (ds *depState) ready(id int64) bool { return ds == nil || ds.unmet[id] == 0 }

// hold parks an arrived task until its dependencies complete.
func (ds *depState) hold(t taskRef) { ds.held[t.ID] = heldTask{task: t, arrived: true} }

// complete marks a task done and returns the tasks it released.
func (ds *depState) complete(id int64) []taskRef {
	if ds == nil {
		return nil
	}
	ds.done[id] = true
	var released []taskRef
	for _, dep := range ds.dependents[id] {
		ds.unmet[dep]--
		if ds.unmet[dep] == 0 {
			if h, ok := ds.held[dep]; ok && h.arrived {
				released = append(released, h.task)
				delete(ds.held, dep)
			}
		}
	}
	return released
}
