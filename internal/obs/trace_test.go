package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Total returns the number of events emitted (dropped ones included).
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// flush records one flush event at time now.
func flush(tr *Tracer, now float64) {
	tr.Append(TraceEvent{T: now, Kind: "flush"})
}

func TestTracerRingDrop(t *testing.T) {
	tr := NewTracer("ring", "fifo", 1, 8)
	for i := 0; i < 20; i++ {
		flush(tr, float64(i))
	}
	if tr.Total() != 20 {
		t.Fatalf("total %d, want 20", tr.Total())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(12 + i); ev.Seq != want || ev.T != float64(want) {
			t.Fatalf("event %d: seq=%d t=%v, want seq=%d (oldest first)", i, ev.Seq, ev.T, want)
		}
	}
}

func TestTracerNoDropUnderCap(t *testing.T) {
	tr := NewTracer("small", "fifo", 1, 8)
	flush(tr, 1)
	flush(tr, 2)
	if tr.Dropped() != 0 || tr.Total() != 2 || len(tr.Events()) != 2 {
		t.Fatalf("dropped=%d total=%d events=%d", tr.Dropped(), tr.Total(), len(tr.Events()))
	}
}

func TestFindRuns(t *testing.T) {
	runs := []*RunTrace{{Label: "static/FIFO"}, {Label: "dynamic/MIBS8-RT"}}
	if got := FindRuns(runs, ""); len(got) != 2 {
		t.Fatalf("empty filter returned %d", len(got))
	}
	if got := FindRuns(runs, "MIBS"); len(got) != 1 || got[0].Label != "dynamic/MIBS8-RT" {
		t.Fatalf("filter MIBS returned %+v", got)
	}
	if got := FindRuns(runs, "nope"); len(got) != 0 {
		t.Fatalf("filter nope returned %d", len(got))
	}
}

// TestServeTraceAnalysis reads a scripted serving-path trace back from
// NDJSON: its lifecycle joins, pass and coalescer statistics, summary and
// Perfetto rendering.
func TestServeTraceAnalysis(t *testing.T) {
	tr := NewTracer("serve", "mios", 2, 0)
	span := func(at float64, kind string, sv ServeInfo) {
		tr.Append(TraceEvent{T: at, Kind: kind, Serve: &sv})
	}
	span(1.0, "admit", ServeInfo{Req: "r1", Task: "t-1", App: "email", Machine: -1, Slot: -1})
	span(1.5, "admit", ServeInfo{Req: "r2", Task: "t-2", App: "email", Machine: -1, Slot: -1})
	span(1.6, "coalesce_wait", ServeInfo{App: "email", Machine: -1, Slot: -1, DurS: 0.1})
	span(2.0, "batch_pass", ServeInfo{Machine: -1, Slot: -1, Batch: 2, Placed: 2, DurS: 0.2})
	span(2.0, "place", ServeInfo{Task: "t-1", App: "email", Machine: 0, Slot: 0, Neighbour: "video", Predicted: 3})
	span(2.5, "place", ServeInfo{Task: "t-2", App: "email", Machine: 1, Slot: 1})
	span(3.0, "batch_pass", ServeInfo{Machine: -1, Slot: -1, Batch: 1, DurS: 0.4})
	span(3.2, "reject", ServeInfo{Req: "r3", App: "video", Machine: -1, Slot: -1, Reason: "queue full"})
	span(5.0, "complete", ServeInfo{Task: "t-1", App: "email", Machine: 0, Slot: 0})

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadTraces(&buf)
	if err != nil || len(runs) != 1 {
		t.Fatalf("read %d runs: %v", len(runs), err)
	}
	run := runs[0]
	if !run.IsServe() {
		t.Fatal("serving trace not recognized")
	}
	sum := run.ServeSummarize()
	if sum.Kinds["admit"] != 2 || sum.Kinds["place"] != 2 || sum.Kinds["complete"] != 1 || sum.Kinds["reject"] != 1 {
		t.Fatalf("kinds %v", sum.Kinds)
	}
	if sum.Passes != 2 || math.Abs(sum.PassMeanS-0.3) > 1e-12 || sum.PassMaxS != 0.4 {
		t.Fatalf("passes %d, mean %v, max %v; want 2, 0.3, 0.4", sum.Passes, sum.PassMeanS, sum.PassMaxS)
	}
	if sum.Coalesced != 1 || sum.CoalesceMeanS != 0.1 {
		t.Fatalf("coalesced %d, mean %v", sum.Coalesced, sum.CoalesceMeanS)
	}
	if len(sum.Apps) != 1 {
		t.Fatalf("apps %+v, want email only", sum.Apps)
	}
	a := sum.Apps[0]
	// Waits 1.0 and 1.0 s; one lifetime of 4.0 s.
	if a.App != "email" || a.Admits != 2 || a.Places != 2 || a.Completes != 1 ||
		math.Abs(a.MeanWait-1.0) > 1e-12 || math.Abs(a.MeanLifetime-4.0) > 1e-12 {
		t.Fatalf("email lifecycle %+v", a)
	}

	var text bytes.Buffer
	run.Summarize(&text, 3)
	for _, want := range []string{"serving-path spans:", "per-app lifecycle", "scheduling passes: 2", "coalesced submissions: 1"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, text.String())
		}
	}

	var pf bytes.Buffer
	if err := WritePerfetto(&pf, run); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	ph := map[string]int{}
	for _, ev := range doc.TraceEvents {
		p, _ := ev["ph"].(string)
		ph[p]++
	}
	// Two admits open async spans, one completion closes one; three
	// durations (a coalescer wait, two passes); place, place, reject and
	// complete instants.
	if ph["b"] != 2 || ph["e"] != 1 || ph["X"] != 3 || ph["i"] != 4 {
		t.Fatalf("perfetto phases %v", ph)
	}
}
