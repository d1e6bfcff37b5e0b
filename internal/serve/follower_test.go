package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tracon/internal/durable"
	"tracon/internal/model"
)

// followerOps widens FuzzPlacerBacklog's verb set (op%9, see there) with two
// the fuzzer does not drive: a library swap that strands queued tasks, and a
// completion of an arbitrary placed task.
const (
	opSwapLibrary = 9 + iota
	opCompleteAny
	numFollowerVerbs
)

type followerOp struct{ verb, arg int }

// fuzzCorpusOps decodes the in-code fuzz seeds and the checked-in corpus
// files into op streams.
func fuzzCorpusOps(t *testing.T) map[string][]followerOp {
	t.Helper()
	decode := func(raw []byte) []followerOp {
		ops := make([]followerOp, len(raw))
		for i, b := range raw {
			ops[i] = followerOp{verb: int(b) % 9, arg: int(b) / 9}
		}
		return ops
	}
	streams := map[string][]followerOp{}
	for i, seed := range fuzzSeeds {
		streams[fmt.Sprintf("inline_%d", i)] = decode(seed)
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzPlacerBacklog/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus files: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		raw, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		streams[filepath.Base(file)] = decode([]byte(raw))
	}
	return streams
}

// runFollower drives a journaled placer with ops while a second, journal-less
// placer is fed ONLY the events the first one commits, through Apply. After
// every commit group the two exported states must be JSON-byte-equal: the
// live paths may change nothing that their events do not carry. With twice
// set, the follower applies every group two times over (replay idempotence
// at group granularity) and must still match.
func runFollower(t *testing.T, policy string, ops []followerOp, twice bool) {
	t.Helper()
	lib := testLibrary(t, model.NLM)
	apps := lib.Apps()
	sub := subLibrary(t, lib, apps[:len(apps)-1]...)
	mgr, err := durable.Open("data", durable.Options{FS: durable.NewMemFS(), Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg := Config{Machines: fuzzMachines, Policy: policy, QueueLen: 4, CompletedCap: 16, TraceCap: -1}
	followerSrv, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = mgr
	liveSrv, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, follower := liveSrv.Placer(), followerSrv.Placer()

	passes := 1
	if twice {
		passes = 2
	}
	groups, events, swaps := 0, uint64(0), uint64(0)
	live.onCommit = func(evs []durable.Event) {
		groups++
		events += uint64(len(evs))
		for pass := 0; pass < passes; pass++ {
			for _, ev := range evs {
				if err := follower.Apply(ev); err != nil {
					t.Fatalf("group %d: follower apply %s: %v", groups, ev, err)
				}
			}
		}
		want := live.exportStateLocked()
		want.Seq = 0 // the follower has no journal to stamp its export with
		if got, want := stateJSON(t, follower.ExportState()), stateJSON(t, want); got != want {
			t.Fatalf("group %d (last event %s): follower diverges from live\nlive:     %s\nfollower: %s", groups, evs[len(evs)-1], want, got)
		}
	}

	tolerate := func(err error, expected ...error) {
		t.Helper()
		for _, e := range expected {
			if errors.Is(err, e) {
				return
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	swapped := false
	for _, op := range ops {
		switch op.verb {
		case 0, 1:
			rec, err := live.SubmitKeyed(apps[op.arg%len(apps)], "", "")
			tolerate(err, ErrQueueFull, model.ErrUnknownApp)
			if err == nil {
				ids = append(ids, rec.ID)
			}
		case 2:
			batch := make([]string, 2+op.arg%3)
			for j := range batch {
				batch[j] = apps[(op.arg+j)%len(apps)]
			}
			outs, err := live.SubmitBatchKeyed(batch, nil, []string{fmt.Sprintf("k%d", op.arg%4)})
			tolerate(err)
			for _, o := range outs {
				if o.Err == nil {
					ids = append(ids, o.Placement.ID)
				}
			}
		case 3, opCompleteAny:
			var placed []string
			for _, id := range ids {
				if rec, ok := live.Get(id); ok && rec.Status == StatusPlaced {
					placed = append(placed, id)
				}
			}
			if len(placed) > 0 {
				pick := 0
				if op.verb == opCompleteAny {
					pick = op.arg % len(placed)
				}
				_, err := live.Complete(placed[pick])
				tolerate(err)
			}
		case 4:
			_, err := live.Kill(op.arg % fuzzMachines)
			tolerate(err, ErrBadTransition)
		case 5:
			tolerate(live.Revive(op.arg%fuzzMachines), ErrBadTransition)
		case 6:
			tolerate(live.Drain(op.arg%fuzzMachines), ErrBadTransition)
		case 7:
			tolerate(live.Undrain(op.arg%fuzzMachines), ErrBadTransition)
		case 8:
			rec, err := live.SubmitKeyed(apps[op.arg%len(apps)], "", fmt.Sprintf("k%d", op.arg%4))
			tolerate(err, ErrQueueFull, model.ErrUnknownApp)
			if err == nil {
				ids = append(ids, rec.ID)
			}
		case opSwapLibrary:
			// Toggle between the full library and one that lacks the last
			// application: queued tasks of that application fail on the next
			// pass. The batch policies cannot score a census that names an
			// application the library lost, so the swap waits until none is
			// in flight.
			next := sub
			if swapped {
				next = lib
			} else if appInFlight(live, apps[len(apps)-1]) {
				break
			}
			tolerate(liveSrv.ModelSet().Swap(next))
			swapped = !swapped
			swaps++ // journaled as gen_swap, outside the placer
		}
		if err := live.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := follower.CheckInvariants(); err != nil {
			t.Fatalf("follower: %v", err)
		}
	}
	if got := mgr.LastSeq(); got != events+swaps || events == 0 {
		t.Fatalf("journal holds %d events; the commit hook saw %d and %d swaps were journaled", got, events, swaps)
	}
}

func appInFlight(p *Placer, app string) bool {
	for _, mv := range p.Machines() {
		for _, sv := range mv.Slots {
			if sv.App == app {
				return true
			}
		}
	}
	return false
}

// TestFollowerMatchesLive is the test the old design could not pass by
// construction: a placer that is only ever told what the live one journaled
// stays byte-identical to it, after every commit group, through the fuzz
// corpus and 2 000 random ops per policy with kills, revives, drains, keyed
// retries, batches and library swaps.
func TestFollowerMatchesLive(t *testing.T) {
	for name, ops := range fuzzCorpusOps(t) {
		t.Run("corpus/"+name, func(t *testing.T) { runFollower(t, "mios", ops, false) })
	}
	nops := 2000
	if testing.Short() {
		nops = 400
	}
	for i, policy := range []string{"fifo", "mios", "mibs"} {
		t.Run("random/"+policy, func(t *testing.T) {
			runFollower(t, policy, randomFollowerOps(int64(i+1), nops), false)
		})
	}
}

// randomFollowerOps draws a stream that keeps the cluster loaded: mostly
// submissions and completions, with every lifecycle verb and the occasional
// library swap mixed in.
func randomFollowerOps(seed int64, n int) []followerOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]followerOp, n)
	for i := range ops {
		verb := rng.Intn(numFollowerVerbs)
		if verb == opSwapLibrary && rng.Intn(4) != 0 {
			verb = opCompleteAny
		}
		ops[i] = followerOp{verb: verb, arg: rng.Intn(1 << 12)}
	}
	return ops
}
