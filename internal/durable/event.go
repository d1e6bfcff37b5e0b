// Package durable is tracond's crash-safe persistence layer: a
// length-prefixed, CRC32C-framed write-ahead log of placement lifecycle
// events plus periodic compacted snapshots of the placer state, managed
// together over one data directory. The serving daemon journals every
// state mutation at its commit point; on boot it loads the newest valid
// snapshot, replays the WAL suffix, and resumes with the exact backlog,
// in-flight set and machine inventory it held when it died.
//
// The package is deliberately ignorant of the serve package: events and
// the snapshot state are neutral, JSON-serializable structs, so serve
// imports durable (never the reverse) and offline tooling (tracontrace's
// WAL inspection mode) can read a journal without a daemon.
//
// Durability contract, by fsync policy:
//
//	always    every append is fsynced before it returns; an event the
//	          daemon acknowledged survives kill -9.
//	interval  appends are fsynced at most once per interval; a crash can
//	          lose up to one interval of acknowledged events.
//	never     the OS decides; a crash can lose everything since the last
//	          snapshot.
//
// All wall-clock reads go through the injected clock (Options.Now), so
// recovery and rotation decisions are deterministic under test.
package durable

import (
	"fmt"
	"strconv"
	"strings"
)

// Event kinds. Every kind journals one placer state transition at its
// commit point; Apply in the serve package replays them idempotently.
const (
	// EvAdmit records one task entering the backlog (singleton submit).
	EvAdmit = "admit"
	// EvBatchAdmit records a whole batch entering the backlog under one
	// critical section (Tasks carries the group in queue order).
	EvBatchAdmit = "batch_admit"
	// EvPlace records a task binding to a concrete (machine, slot).
	EvPlace = "place"
	// EvComplete records a task freeing its slot.
	EvComplete = "complete"
	// EvFail records a task failing terminally (Error carries why).
	EvFail = "fail"
	// EvKill records a machine going down; Tasks carries the evicted
	// in-flight tasks in the order they were re-queued at the queue front.
	EvKill = "kill"
	// EvDrain, EvUndrain and EvRevive record the other machine lifecycle
	// transitions.
	EvDrain   = "drain"
	EvUndrain = "undrain"
	EvRevive  = "revive"
	// EvRequeue records boot-time recovery re-queueing orphaned in-flight
	// tasks at the queue front (Tasks in re-queue order).
	EvRequeue = "requeue"
	// EvGenSwap records a model-generation hot-swap (Gen is the new
	// generation). Replay treats it as informational: a restarted daemon
	// rebuilds its model library independently.
	EvGenSwap = "gen_swap"
)

// TaskRef is one task inside a multi-task event (batch_admit, kill,
// requeue).
type TaskRef struct {
	Task string `json:"task"`
	App  string `json:"app,omitempty"`
	// Req is the originating request ID, Dedup the idempotency key (see
	// Event.Dedup).
	Req   string `json:"req,omitempty"`
	Dedup string `json:"dedup,omitempty"`
}

// Event is one journaled placer state transition. Seq is assigned by the
// Manager at append time: strictly monotonic, gapless within a journal,
// and the replay cursor for snapshots.
type Event struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"k"`

	// Task, App and Req identify single-task events (admit, place,
	// complete, fail).
	Task string `json:"task,omitempty"`
	App  string `json:"app,omitempty"`
	Req  string `json:"req,omitempty"`
	// Dedup is the idempotency key under which the admission was
	// registered (client-supplied request IDs double as idempotency keys;
	// empty for server-minted IDs). Replay rebuilds the dedup index from
	// it, so a client retrying a submit across a daemon crash gets its
	// original placement back instead of a duplicate.
	Dedup string `json:"dedup,omitempty"`
	// Tasks carries the group for batch_admit, kill and requeue.
	Tasks []TaskRef `json:"tasks,omitempty"`

	// Machine and Slot locate place/complete/lifecycle events (-1 when
	// not applicable — never omitted, so machine 0 is unambiguous).
	Machine int `json:"m"`
	Slot    int `json:"s"`
	// Neighbour, PredRT, PredIOPS, Gen and BG capture the placement
	// decision (place): the co-located app, the model's forecasts, the
	// deciding generation and the neighbour's characteristic vector (kept
	// for the retraining sample the completion turns into).
	Neighbour string    `json:"nb,omitempty"`
	PredRT    float64   `json:"pred_rt,omitempty"`
	PredIOPS  float64   `json:"pred_iops,omitempty"`
	Gen       uint64    `json:"gen,omitempty"`
	BG        []float64 `json:"bg,omitempty"`
	// Error carries the failure reason (fail).
	Error string `json:"err,omitempty"`
}

// String renders one event for the WAL dump tool.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d  %-11s", e.Seq, e.Kind)
	if e.Task != "" {
		fmt.Fprintf(&b, " %s", e.Task)
	}
	if e.App != "" {
		fmt.Fprintf(&b, " app=%s", e.App)
	}
	if e.Machine >= 0 {
		fmt.Fprintf(&b, " m=%d/%d", e.Machine, e.Slot)
	}
	if e.Neighbour != "" {
		fmt.Fprintf(&b, " nb=%s", e.Neighbour)
	}
	if e.Gen > 0 {
		fmt.Fprintf(&b, " gen=%d", e.Gen)
	}
	if len(e.Tasks) > 0 {
		ids := make([]string, len(e.Tasks))
		for i, t := range e.Tasks {
			ids[i] = t.Task
		}
		fmt.Fprintf(&b, " tasks=[%s]", strings.Join(ids, " "))
	}
	if e.Error != "" {
		fmt.Fprintf(&b, " err=%q", e.Error)
	}
	return b.String()
}

// SlotState is one VM of a two-VM machine in a snapshot.
type SlotState struct {
	Task string `json:"task,omitempty"`
	App  string `json:"app,omitempty"`
}

// MachineState is one machine in a snapshot.
type MachineState struct {
	State string      `json:"state"`
	Slots []SlotState `json:"slots"`
}

// PlacementState is one placement record in a snapshot. It mirrors
// serve.Placement field for field (plus the unexported idempotency key),
// kept as a neutral struct so this package stays daemon-agnostic.
type PlacementState struct {
	ID        string    `json:"id"`
	App       string    `json:"app"`
	Status    string    `json:"status"`
	Machine   int       `json:"machine"`
	Slot      int       `json:"slot"`
	Neighbour string    `json:"neighbour,omitempty"`
	PredRT    float64   `json:"pred_rt,omitempty"`
	PredIOPS  float64   `json:"pred_iops,omitempty"`
	Gen       uint64    `json:"gen,omitempty"`
	Error     string    `json:"error,omitempty"`
	Retries   int       `json:"retries,omitempty"`
	Req       string    `json:"req,omitempty"`
	Dedup     string    `json:"dedup,omitempty"`
	BG        []float64 `json:"bg,omitempty"`
}

// PlacerState is one compacted snapshot of the full serving state: the
// machine inventory, the FIFO backlog, every retained placement record
// (sorted by numeric ID for byte-stable encoding), the finished ring and
// the admission counters. Seq is the WAL sequence number the state
// includes: replay starts at Seq+1.
type PlacerState struct {
	Seq        uint64           `json:"seq"`
	NextID     int64            `json:"next_id"`
	Machines   []MachineState   `json:"machines"`
	Queue      []string         `json:"queue"`
	Done       []string         `json:"done"`
	Placements []PlacementState `json:"placements"`
	Rejected   uint64           `json:"rejected"`
}

// TaskSeq parses the numeric part of a placement ID ("t-<n>"); ok is
// false for IDs minted elsewhere.
func TaskSeq(id string) (int64, bool) {
	rest, found := strings.CutPrefix(id, "t-")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
