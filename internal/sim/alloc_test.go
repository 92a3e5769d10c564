package sim

import (
	"math/rand"
	"sort"
	"testing"

	"planaria/internal/workload"
)

// The event-engine work (DESIGN.md §12) guarantees that steady-state
// tracing stays off the allocator: recording into a Reserved buffer and
// the disabled-tracing no-op path must both be alloc-free. These tests
// pin that contract so a future refactor that reintroduces a per-event
// allocation fails loudly instead of silently costing 1M allocs per
// serving run.

func TestTraceRecordZeroAllocs(t *testing.T) {
	tr := &Trace{}
	tr.Reserve(2048)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{Time: float64(i), Kind: EvAlloc, Task: i, Alloc: 4})
		i++
	})
	if allocs != 0 {
		t.Fatalf("Trace.record into reserved capacity: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.record(Event{Kind: EvFinish, Task: 1})
		tr.Reserve(64)
	})
	if allocs != 0 {
		t.Fatalf("nil-Trace no-op path: %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceReserveAmortizes(t *testing.T) {
	tr := &Trace{}
	tr.Reserve(100)
	if cap(tr.Events) < 100 {
		t.Fatalf("Reserve(100) left cap %d", cap(tr.Events))
	}
	// A second Reserve within the existing headroom must not reallocate.
	before := cap(tr.Events)
	tr.Reserve(50)
	if cap(tr.Events) != before {
		t.Fatalf("Reserve within capacity reallocated: cap %d -> %d", before, cap(tr.Events))
	}
}

// TestRefissionOffRunAllocParity pins the elastic-off fast path: a
// policy that implements Refissioner but reports inactive must drive
// Run with zero extra allocations over the identical plain policy — the
// re-fission machinery costs nothing unless it is switched on.
func TestRefissionOffRunAllocParity(t *testing.T) {
	nodeP, prog := testNode(t, nil)
	iso := nodeP.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := refissionReqs(iso)
	nodeP.Policy = &splitPolicy{at: iso * 0.5}
	nodeE, _ := testNode(t, nil)
	nodeE.Policy = &stubRefission{splitPolicy{at: iso * 0.5}, false}
	run := func(n *Node) {
		if _, err := n.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch pool and program tables so both measurements see
	// steady state.
	run(nodeP)
	run(nodeE)
	aPlain := testing.AllocsPerRun(100, func() { run(nodeP) })
	aElastic := testing.AllocsPerRun(100, func() { run(nodeE) })
	if aElastic > aPlain {
		t.Fatalf("inactive refissioner run allocates %.1f/op, plain policy %.1f/op (want 0 extra)",
			aElastic, aPlain)
	}
}

// TestRetryHeapOrder checks the heap against the sorted-slice queue it
// replaced: pop order must equal a stable sort by (at, task ID), with
// task ID breaking timestamp ties (IDs are unique, so the order is
// total and the two structures are behavior-identical).
func TestRetryHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]Task, 64)
	var want []retryEntry
	for i := range tasks {
		tasks[i].ID = i
		// Coarse timestamps force ID tie-breaks.
		want = append(want, retryEntry{t: &tasks[i], at: float64(rng.Intn(8))})
	}
	var h retryHeap
	for _, i := range rng.Perm(len(want)) {
		h.push(want[i])
	}
	sort.SliceStable(want, func(i, j int) bool { return retryBefore(want[i], want[j]) })
	for i, w := range want {
		if h.Len() != len(want)-i {
			t.Fatalf("Len() = %d before pop %d", h.Len(), i)
		}
		if p := h.peek(); p != w {
			t.Fatalf("peek %d = {%d %g}, want {%d %g}", i, p.t.ID, p.at, w.t.ID, w.at)
		}
		if g := h.pop(); g != w {
			t.Fatalf("pop %d = {%d %g}, want {%d %g}", i, g.t.ID, g.at, w.t.ID, w.at)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}

// TestMeetsSLAAllocParity: the verdict path allocates nothing per run
// beyond what Run does — its per-domain tallies live in the pooled
// scratch — whether the verdict comes early or after the last request.
func TestMeetsSLAAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts vary per run")
	}
	node, prog := testNode(t, &splitPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	domains := []string{"classification", "detection", "translation"}
	stream := func(qos float64) []workload.Request {
		reqs := make([]workload.Request, 120)
		for i := range reqs {
			reqs[i] = req(i, float64(i)*iso/2, qos, 1+i%11)
			reqs[i].Domain = domains[i%len(domains)]
		}
		return reqs
	}
	for _, c := range []struct {
		name string
		reqs []workload.Request
		want bool
	}{
		{"meets", stream(1e3 * iso), true},
		{"doomed", stream(1.5 * iso), false},
	} {
		run := func() {
			if _, err := node.Run(c.reqs); err != nil {
				t.Fatal(err)
			}
		}
		verdict := func() {
			ok, err := node.MeetsSLA(c.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.want {
				t.Fatalf("%s: MeetsSLA = %v, want %v", c.name, ok, c.want)
			}
		}
		run()
		verdict()
		aRun := testing.AllocsPerRun(50, run)
		aVerdict := testing.AllocsPerRun(50, verdict)
		if aVerdict > aRun {
			t.Errorf("%s: MeetsSLA allocates %.1f/op, Run %.1f/op (want no more)", c.name, aVerdict, aRun)
		}
	}
}

// TestRunLoopAllocFree pins the per-event loop allocation-free: a warm,
// sink-free Run allocates exactly as often for N requests as for 10·N,
// so every allocation left is per run and none is per event.
func TestRunLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts vary per run")
	}
	node, prog := testNode(t, nil)
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	node.Policy = &splitPolicy{at: iso / 10}
	node.Shed = ShedPriority
	// Pairs of overlapping arrivals at 80% load: every pair splits the
	// chip, so the loop re-allocates, preempts and retires throughout.
	stream := func(n int) []workload.Request {
		reqs := make([]workload.Request, n)
		for i := range reqs {
			reqs[i] = req(i, float64(i/2)*2.5*iso+float64(i%2)*0.3*iso, 4*iso, 1+i%11)
		}
		return reqs
	}
	small, large := stream(100), stream(1000)
	allocs := func(reqs []workload.Request) float64 {
		return testing.AllocsPerRun(20, func() {
			out, err := node.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if out.Preemptions == 0 {
				t.Fatal("stream never preempted")
			}
		})
	}
	aLarge := allocs(large) // grows the pooled buffers first
	if aSmall := allocs(small); aLarge != aSmall {
		t.Fatalf("Run allocates %.1f/op at %d requests and %.1f/op at %d: the event loop allocates",
			aSmall, len(small), aLarge, len(large))
	}
}
