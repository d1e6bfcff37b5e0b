package fault

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.FailProb <= 0 && p.TaskTimeout <= 0 && len(p.Crashes) == 0 && len(p.Slowdowns) == 0)
}

// Save writes the plan as indented JSON.
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

func TestRetryDelayTable(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		failed int
		want   float64
	}{
		{"defaults first retry", RetryPolicy{}, 1, 1},
		{"defaults second retry doubles", RetryPolicy{}, 2, 2},
		{"defaults third retry doubles again", RetryPolicy{}, 3, 4},
		{"defaults cap at 60", RetryPolicy{}, 20, 60},
		{"custom base", RetryPolicy{Backoff: 0.5}, 1, 0.5},
		{"custom factor", RetryPolicy{Backoff: 2, BackoffFactor: 3}, 3, 18},
		{"custom cap", RetryPolicy{Backoff: 10, MaxBackoff: 15}, 2, 15},
		{"cap below base", RetryPolicy{Backoff: 10, MaxBackoff: 5}, 1, 5},
		{"factor one never grows", RetryPolicy{Backoff: 7, BackoffFactor: 1}, 9, 7},
		{"failed below one clamps", RetryPolicy{}, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Plan{Retry: c.policy}
			if got := p.RetryDelay(c.failed); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("RetryDelay(%d) = %v, want %v", c.failed, got, c.want)
			}
		})
	}
}

func TestRetryAllowedTable(t *testing.T) {
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		want    bool
	}{
		{"defaults allow third attempt", RetryPolicy{}, 3, true},
		{"defaults deny fourth attempt", RetryPolicy{}, 4, false},
		{"single attempt denies any retry", RetryPolicy{MaxAttempts: 1}, 2, false},
		{"custom budget boundary", RetryPolicy{MaxAttempts: 5}, 5, true},
		{"custom budget exhausted", RetryPolicy{MaxAttempts: 5}, 6, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Plan{Retry: c.policy}
			if got := p.RetryAllowed(c.attempt); got != c.want {
				t.Fatalf("RetryAllowed(%d) = %v, want %v", c.attempt, got, c.want)
			}
		})
	}
}

func TestTaskFailsIsKeyAddressed(t *testing.T) {
	p := &Plan{Seed: 42, FailProb: 0.3}
	// Same (task, attempt) always answers the same, regardless of call order.
	first := map[[2]int64]bool{}
	for id := int64(0); id < 200; id++ {
		for a := 1; a <= 3; a++ {
			first[[2]int64{id, int64(a)}] = p.TaskFails(id, a)
		}
	}
	for id := int64(199); id >= 0; id-- {
		for a := 3; a >= 1; a-- {
			if got := p.TaskFails(id, a); got != first[[2]int64{id, int64(a)}] {
				t.Fatalf("TaskFails(%d, %d) changed between calls", id, a)
			}
		}
	}
	// The empirical rate over many keys must be near FailProb.
	n, fails := 20000, 0
	for id := int64(0); id < int64(n); id++ {
		if p.TaskFails(id, 1) {
			fails++
		}
	}
	rate := float64(fails) / float64(n)
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("empirical failure rate %v too far from 0.3", rate)
	}
	// Different seeds fail different keys.
	q := &Plan{Seed: 43, FailProb: 0.3}
	same := 0
	for id := int64(0); id < 1000; id++ {
		if p.TaskFails(id, 1) == q.TaskFails(id, 1) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seeds 42 and 43 fail identical keys")
	}
	// Degenerate probabilities.
	if (&Plan{FailProb: 0}).TaskFails(1, 1) {
		t.Fatal("FailProb 0 failed a task")
	}
	if !(&Plan{FailProb: 1}).TaskFails(1, 1) {
		t.Fatal("FailProb 1 passed a task")
	}
	var nilPlan *Plan
	if nilPlan.TaskFails(1, 1) {
		t.Fatal("nil plan failed a task")
	}
}

func TestRateFactorWindows(t *testing.T) {
	p := &Plan{Slowdowns: []Slowdown{
		{Machine: 1, Slot: 0, From: 10, To: 20, Factor: 0.5},
		{Machine: 1, Slot: 0, From: 30, To: 40, Factor: 0},
	}}
	cases := []struct {
		m, s int
		t    float64
		want float64
	}{
		{1, 0, 9.999, 1},
		{1, 0, 10, 0.5}, // half-open: From included
		{1, 0, 19.99, 0.5},
		{1, 0, 20, 1}, // half-open: To excluded
		{1, 0, 35, 0}, // full stall
		{1, 1, 15, 1}, // other slot untouched
		{0, 0, 15, 1}, // other machine untouched
	}
	for _, c := range cases {
		if got := p.RateFactor(c.m, c.s, c.t); got != c.want {
			t.Fatalf("RateFactor(%d, %d, %v) = %v, want %v", c.m, c.s, c.t, got, c.want)
		}
	}
	var nilPlan *Plan
	if nilPlan.RateFactor(0, 0, 0) != 1 {
		t.Fatal("nil plan dilated a rate")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		wantErr string
	}{
		{"empty plan ok", Plan{}, ""},
		{"fail prob range", Plan{FailProb: 1.5}, "fail_prob"},
		{"negative timeout", Plan{TaskTimeout: -1}, "task_timeout"},
		{"negative retry", Plan{Retry: RetryPolicy{Backoff: -1}}, "retry-policy"},
		{"crash machine bounds", Plan{Crashes: []Crash{{Machine: 4, DownAt: 1}}}, "outside"},
		{"crash up before down", Plan{Crashes: []Crash{{Machine: 0, DownAt: 5, UpAt: 3}}}, "up_at"},
		{"overlapping crashes", Plan{Crashes: []Crash{
			{Machine: 0, DownAt: 1, UpAt: 10},
			{Machine: 0, DownAt: 5, UpAt: 20},
		}}, "overlapping crash"},
		{"unrecovered then crash again", Plan{Crashes: []Crash{
			{Machine: 0, DownAt: 1},
			{Machine: 0, DownAt: 5, UpAt: 20},
		}}, "overlapping crash"},
		{"adjacent crash windows ok", Plan{Crashes: []Crash{
			{Machine: 0, DownAt: 1, UpAt: 10},
			{Machine: 0, DownAt: 10, UpAt: 20},
		}}, ""},
		{"slowdown slot bounds", Plan{Slowdowns: []Slowdown{{Machine: 0, Slot: 2, From: 1, To: 2, Factor: 0.5}}}, "slot"},
		{"slowdown factor one", Plan{Slowdowns: []Slowdown{{Machine: 0, Slot: 0, From: 1, To: 2, Factor: 1}}}, "factor"},
		{"slowdown empty window", Plan{Slowdowns: []Slowdown{{Machine: 0, Slot: 0, From: 2, To: 2, Factor: 0.5}}}, "window"},
		{"overlapping slowdowns", Plan{Slowdowns: []Slowdown{
			{Machine: 0, Slot: 0, From: 1, To: 5, Factor: 0.5},
			{Machine: 0, Slot: 0, From: 4, To: 9, Factor: 0.2},
		}}, "overlapping slowdown"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate(4, 2)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestTimelineOrder(t *testing.T) {
	p := &Plan{
		Crashes: []Crash{
			{Machine: 2, DownAt: 10, UpAt: 30},
			{Machine: 0, DownAt: 10, UpAt: 20},
			{Machine: 1, DownAt: 20, UpAt: 40},
		},
		Slowdowns: []Slowdown{{Machine: 3, Slot: 1, From: 10, To: 20, Factor: 0.5}},
	}
	bs := p.Timeline()
	for i := 1; i < len(bs); i++ {
		a, b := bs[i-1], bs[i]
		if a.T > b.T {
			t.Fatalf("timeline out of order at %d: %+v after %+v", i, b, a)
		}
	}
	// At t=20: machine 0's up must precede machine 1's down (adjacent-seam
	// ordering), and slowdown boundaries come after machine boundaries.
	var at20 []Boundary
	for _, b := range bs {
		if b.T == 20 {
			at20 = append(at20, b)
		}
	}
	if len(at20) != 3 || at20[0].Kind != BoundaryUp || at20[1].Kind != BoundaryDown || at20[2].Kind != BoundarySlowEnd {
		t.Fatalf("tie-break order wrong at t=20: %+v", at20)
	}
	if (&Plan{}).Timeline() != nil {
		t.Fatal("empty plan produced a timeline")
	}
}

func TestForMachines(t *testing.T) {
	p := &Plan{
		FailProb: 0.1,
		Crashes: []Crash{
			{Machine: 0, DownAt: 1, UpAt: 2},
			{Machine: 7, DownAt: 1, UpAt: 2},
		},
		Slowdowns: []Slowdown{
			{Machine: 3, Slot: 0, From: 1, To: 2, Factor: 0.5},
			{Machine: 9, Slot: 0, From: 1, To: 2, Factor: 0.5},
		},
	}
	q := p.ForMachines(4)
	if len(q.Crashes) != 1 || q.Crashes[0].Machine != 0 {
		t.Fatalf("clipped crashes wrong: %+v", q.Crashes)
	}
	if len(q.Slowdowns) != 1 || q.Slowdowns[0].Machine != 3 {
		t.Fatalf("clipped slowdowns wrong: %+v", q.Slowdowns)
	}
	if q.FailProb != 0.1 {
		t.Fatal("scalar fields not carried over")
	}
	if len(p.Crashes) != 2 || len(p.Slowdowns) != 2 {
		t.Fatal("receiver was modified")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed:        7,
		FailProb:    0.05,
		TaskTimeout: 600,
		Retry:       RetryPolicy{MaxAttempts: 4, Backoff: 2, BackoffFactor: 2, MaxBackoff: 30},
		Crashes:     []Crash{{Machine: 1, DownAt: 100, UpAt: 400}},
		Slowdowns:   []Slowdown{{Machine: 0, Slot: 1, From: 50, To: 150, Factor: 0.25}},
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Seed != 7 || q.FailProb != 0.05 || q.TaskTimeout != 600 ||
		len(q.Crashes) != 1 || q.Crashes[0] != p.Crashes[0] ||
		len(q.Slowdowns) != 1 || q.Slowdowns[0] != p.Slowdowns[0] ||
		q.Retry != p.Retry {
		t.Fatalf("round trip mismatch: %+v", q)
	}
}

func TestLoadRejectsUnknownFieldsAndBadPlans(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"typo_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"fail_prob": 2}`)); err == nil {
		t.Fatal("invalid plan accepted")
	}
	p, err := Load(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatal("empty JSON plan not Empty")
	}
}
