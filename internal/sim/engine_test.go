package sim

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/workload"
)

// fullPolicy gives every task an equal share (test stand-in).
type fullPolicy struct{}

func (fullPolicy) Name() string     { return "test-equal" }
func (fullPolicy) Quantum() float64 { return 0 }
func (fullPolicy) Allocate(now float64, tasks []*Task, total int) map[int]int {
	m := make(map[int]int, len(tasks))
	if len(tasks) == 0 {
		return m
	}
	share := total / len(tasks)
	if share < 1 {
		share = 1
	}
	left := total
	for _, t := range tasks {
		a := share
		if a > left {
			a = left
		}
		m[t.ID] = a
		left -= a
	}
	return m
}

func toyNet(t *testing.T, name string) *dnn.Network {
	t.Helper()
	b := dnn.NewBuilder(name, "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.Conv("c2", 32, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testNode(t *testing.T, pol Policy) (*Node, *compiler.Program) {
	t.Helper()
	cfg := arch.Planaria()
	net := toyNet(t, "sim-toy")
	prog, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return &Node{
		Cfg:      cfg,
		Policy:   pol,
		Programs: map[string]*compiler.Program{"sim-toy": prog},
		Params:   energy.Default(),
	}, prog
}

func req(id int, arrival, qos float64, prio int) workload.Request {
	return workload.Request{
		ID: id, Model: "sim-toy", Domain: "classification",
		Arrival: arrival, Priority: prio, QoS: qos, Deadline: arrival + qos,
	}
}

func TestSingleRequestLatencyEqualsIsolated(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	out, err := node.Run([]workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Latency[0]-iso) > iso*0.01+1e-9 {
		t.Fatalf("lone-task latency %.3g, isolated %.3g", out.Latency[0], iso)
	}
	if out.Preemptions != 0 {
		t.Errorf("lone task preempted %d times", out.Preemptions)
	}
	if out.EnergyJ <= 0 {
		t.Errorf("energy = %g", out.EnergyJ)
	}
}

func TestCoLocatedTasksBothFinish(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	iso := node.Cfg.Seconds(prog.Table(16).TotalCycles)
	reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0, 1, 5)}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if out.Finishes[i] < 0 {
			t.Fatalf("request %d never finished", i)
		}
		if out.Latency[i] < iso {
			t.Errorf("co-located latency %.3g below isolated %.3g", out.Latency[i], iso)
		}
	}
	if out.Fairness <= 0 || out.Fairness > 1+1e-9 {
		t.Errorf("fairness = %g outside (0,1]", out.Fairness)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	reqs := []workload.Request{
		req(0, 0.000, 1, 5),
		req(1, 0.001, 1, 5),
		req(2, 0.050, 1, 5),
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if out.Finishes[i] < reqs[i].Arrival {
			t.Fatalf("request %d finished before arriving", i)
		}
	}
	if !out.MeetsSLA {
		t.Error("easy workload should meet SLA")
	}
}

func TestDeterminism(t *testing.T) {
	reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0.0005, 1, 7), req(2, 0.001, 1, 2)}
	node1, _ := testNode(t, fullPolicy{})
	node2, _ := testNode(t, fullPolicy{})
	o1, err := node1.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := node2.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1.Finishes {
		if o1.Finishes[i] != o2.Finishes[i] {
			t.Fatalf("nondeterministic finish for request %d: %g vs %g", i, o1.Finishes[i], o2.Finishes[i])
		}
	}
	if o1.EnergyJ != o2.EnergyJ {
		t.Fatalf("nondeterministic energy: %g vs %g", o1.EnergyJ, o2.EnergyJ)
	}
}

// TestUnknownModelRejectionOutcome checks that a request for an unknown model becomes a per-request
// rejection rather than failing the whole run, and the other requests
// finish untouched.
func TestUnknownModelRejectionOutcome(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	node.Trace = &Trace{}
	reqs := []workload.Request{
		req(0, 0, 1, 1),
		{ID: 1, Model: "no-such-model", Arrival: 10e-6, QoS: 1, Deadline: 1, Priority: 1},
		req(2, 20e-6, 1, 1),
	}
	out, err := node.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", out.Rejected)
	}
	if out.Finishes[1] != -1 {
		t.Fatalf("rejected request got a finish time %g", out.Finishes[1])
	}
	for _, i := range []int{0, 2} {
		if out.Finishes[i] < 0 {
			t.Fatalf("request %d did not finish (%g)", i, out.Finishes[i])
		}
	}
	var sawReject bool
	for _, e := range node.Trace.Events {
		if e.Kind == EvReject && e.Task == 1 {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("no EvReject for the unknown-model request")
	}
	if err := node.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRunRejected(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	if _, err := node.Run(nil); err == nil {
		t.Fatal("expected empty-request error")
	}
}

// fixedPolicy allocates the same map at every event.
type fixedPolicy map[int]int

func (fixedPolicy) Name() string                                 { return "test-fixed" }
func (fixedPolicy) Quantum() float64                             { return 0 }
func (p fixedPolicy) Allocate(float64, []*Task, int) map[int]int { return p }

// TestValidateAllocationContract: an Allocate-only policy's map passes
// through the adapter's unknown-task check and the range and sum checks
// every policy's allocation gets.
func TestValidateAllocationContract(t *testing.T) {
	tasks := []*Task{{ID: 1}, {ID: 2}}
	check := func(m map[int]int) error {
		a := &mapAllocator{p: fixedPolicy(m)}
		dst := make([]int, len(tasks))
		if a.AllocateInto(0, tasks, 16, dst); a.err != nil {
			return a.err
		}
		return validateAllocationSlice(dst, tasks, 16)
	}
	if err := check(map[int]int{1: 8, 2: 8}); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	if err := check(map[int]int{1: 9, 2: 8}); err == nil {
		t.Error("over-allocation accepted")
	}
	if err := check(map[int]int{3: 1}); err == nil {
		t.Error("unknown-task allocation accepted")
	}
	if err := check(map[int]int{1: -1}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestReallocChargesPenalty(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	_ = node
	task := &Task{ID: 0, Prog: prog, Alloc: 16, Frac: 0.3, Finish: -1}
	task.applyRealloc(8, &node.Cfg, 1)
	if task.PenaltyCycles <= configLoadCycles {
		t.Errorf("penalty = %d, want > %d (tile drain + checkpoint included)", task.PenaltyCycles, configLoadCycles)
	}
	if task.Preemptions != 1 {
		t.Errorf("preemptions = %d", task.Preemptions)
	}
	// No-op realloc has no cost.
	before := task.PenaltyCycles
	task.applyRealloc(8, &node.Cfg, 1)
	if task.PenaltyCycles != before {
		t.Error("no-op realloc charged a penalty")
	}
	// Stall (alloc 0) also checkpoints.
	task.applyRealloc(0, &node.Cfg, 1)
	if task.Alloc != 0 {
		t.Errorf("alloc = %d after stall", task.Alloc)
	}
}

func TestTaskAdvanceAcrossLayers(t *testing.T) {
	_, prog := testNode(t, fullPolicy{})
	task := &Task{ID: 0, Prog: prog, Alloc: 16, Finish: -1}
	total := prog.Table(16).TotalCycles
	consumed := task.advance(total, energy.Default())
	if consumed != total {
		t.Fatalf("consumed %d of %d", consumed, total)
	}
	if !task.Done() {
		t.Fatal("task not done after consuming all cycles")
	}
	if task.EnergyJ <= 0 {
		t.Fatal("no energy accumulated")
	}
	// Further advancing consumes nothing.
	if task.advance(100, energy.Default()) != 0 {
		t.Fatal("done task consumed cycles")
	}
}

func TestRemainingCyclesMonotoneInProgress(t *testing.T) {
	_, prog := testNode(t, fullPolicy{})
	task := &Task{ID: 0, Prog: prog, Alloc: 4, Finish: -1}
	prev := task.RemainingCycles(4)
	step := prev / 10
	for i := 0; i < 9; i++ {
		task.advance(step, energy.Default())
		cur := task.RemainingCycles(4)
		if cur > prev {
			t.Fatalf("remaining increased %d → %d at step %d", prev, cur, i)
		}
		prev = cur
	}
}

func TestCheckpointScalesWithBandwidthShare(t *testing.T) {
	// A task preempted from a small allocation has a smaller bandwidth
	// share, so checkpointing the same tile takes longer.
	node, prog := testNode(t, fullPolicy{})
	wide := &Task{ID: 0, Prog: prog, Alloc: 16, Finish: -1}
	narrow := &Task{ID: 1, Prog: prog, Alloc: 1, Finish: -1}
	cw := wide.checkpointCycles(&node.Cfg, 16)
	cn := narrow.checkpointCycles(&node.Cfg, 1)
	if cn <= cw {
		t.Fatalf("narrow-allocation checkpoint %d not above wide %d", cn, cw)
	}
	// Done tasks have nothing to checkpoint.
	done := &Task{ID: 2, Prog: prog, Alloc: 4, Layer: len(prog.Table(1).Layers)}
	if done.checkpointCycles(&node.Cfg, 4) != 0 {
		t.Fatal("done task checkpointed")
	}
}

// TestRunRejectsMalformedRequests: a non-finite arrival, a negative or
// non-finite work multiplier, a priority outside 1..11 or a non-finite
// deadline fails Run up front with a named error, instead of spinning to
// the livelock guard, failing with an opaque "no next event", silently
// running as unscaled work, or feeding a zero priority into the fairness
// sum and the priority shed's divisor.
func TestRunRejectsMalformedRequests(t *testing.T) {
	cases := []struct {
		name string
		mod  func(r *workload.Request)
		want error
	}{
		{"NaN arrival", func(r *workload.Request) { r.Arrival = math.NaN() }, ErrBadArrival},
		{"+Inf arrival", func(r *workload.Request) { r.Arrival = math.Inf(1) }, ErrBadArrival},
		{"negative work", func(r *workload.Request) { r.Work = -1 }, ErrBadWork},
		{"NaN work", func(r *workload.Request) { r.Work = math.NaN() }, ErrBadWork},
		{"priority 0", func(r *workload.Request) { r.Priority = 0 }, ErrBadPriority},
		{"priority 12", func(r *workload.Request) { r.Priority = 12 }, ErrBadPriority},
		{"NaN deadline", func(r *workload.Request) { r.Deadline = math.NaN() }, ErrBadDeadline},
		{"-Inf deadline", func(r *workload.Request) { r.Deadline = math.Inf(-1) }, ErrBadDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, _ := testNode(t, fullPolicy{})
			reqs := []workload.Request{req(0, 0, 1, 5), req(1, 0.001, 1, 5), req(2, 0.002, 1, 5)}
			tc.mod(&reqs[2])
			_, err := node.Run(reqs)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run error = %v, want %v", err, tc.want)
			}
		})
	}
	// Zero work keeps meaning unscaled.
	node, _ := testNode(t, fullPolicy{})
	plain, err := node.Run([]workload.Request{req(0, 0, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	r := req(0, 0, 1, 5)
	r.Work = 1
	one, err := node.Run([]workload.Request{r})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Finishes[0] != one.Finishes[0] {
		t.Fatalf("Work 0 finished at %g, Work 1 at %g", plain.Finishes[0], one.Finishes[0])
	}
}

// ppEntry carries one finished task's normalized-progress inputs for
// the fairness referee.
type ppEntry struct {
	priority int
	iso      float64
	multi    float64
}

// fairnessOf is the referee for Run's online fairness fold: PREMA's
// metric PP_i = (T_iso / T_multi) / (priority_i / Σ priority), fairness
// = min_{i,j} PP_i / PP_j = min PP / max PP, over a materialized list.
func fairnessOf(pp []ppEntry, prioSum float64) float64 {
	if len(pp) < 2 {
		return 1
	}
	minPP, maxPP := math.Inf(1), 0.0
	for _, e := range pp {
		if e.multi <= 0 {
			continue
		}
		v := (e.iso / e.multi) / (float64(e.priority) / prioSum)
		if v < minPP {
			minPP = v
		}
		if v > maxPP {
			maxPP = v
		}
	}
	if maxPP == 0 || math.IsInf(minPP, 1) {
		return 1
	}
	return minPP / maxPP
}

// TestFairnessFoldMatchesReference: over seeded random streams —
// single requests, rejected unknown models (fewer than two finished
// tasks), every valid priority, and near-zero work that finishes at its
// arrival instant (T_multi = 0) — Outcome.Fairness is bit-equal to the
// materialized referee.
func TestFairnessFoldMatchesReference(t *testing.T) {
	node, prog := testNode(t, fullPolicy{})
	total := node.Cfg.NumSubarrays()
	iso := float64(prog.Table(total).TotalCycles) / node.Cfg.CyclesPerSecond()
	rng := rand.New(rand.NewSource(2024))
	sawFew, sawZeroMulti := false, false
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		reqs := make([]workload.Request, n)
		at := 0.0
		for i := range reqs {
			at += float64(rng.Intn(4)) * 2e-4
			reqs[i] = req(i, at, 1, 1+rng.Intn(11))
			switch rng.Intn(6) {
			case 0:
				reqs[i].Model = "no-such-model"
			case 1:
				reqs[i].Work = 1e-12
			case 2:
				reqs[i].Work = 2.5
			}
		}
		out, err := node.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		prioSum := 0.0
		var pp []ppEntry
		for i, r := range reqs {
			prioSum += float64(r.Priority)
			if out.Finishes[i] >= 0 {
				pp = append(pp, ppEntry{priority: r.Priority, iso: iso, multi: out.Latency[i]})
				if out.Latency[i] <= 0 {
					sawZeroMulti = true
				}
			}
		}
		if len(pp) < 2 {
			sawFew = true
		}
		want := fairnessOf(pp, prioSum)
		if math.Float64bits(out.Fairness) != math.Float64bits(want) {
			t.Fatalf("trial %d: Fairness %v, reference %v (reqs %+v)", trial, out.Fairness, want, reqs)
		}
	}
	if !sawFew || !sawZeroMulti {
		t.Fatalf("edge cases not exercised: <2 finished %v, T_multi <= 0 %v", sawFew, sawZeroMulti)
	}
}

// TestRunIDMapOnlyWhenRead pins the ID-map rule: a sorted stream with
// strictly increasing, non-identity IDs (the shape of every cluster
// chip stream) allocates exactly what the identity stream does — no
// ID → position map — and produces the same outcome.
func TestRunIDMapOnlyWhenRead(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	var ident, shifted []workload.Request
	for i := 0; i < 200; i++ {
		ident = append(ident, req(i, float64(i)*1e-3, 1, 5))
		shifted = append(shifted, req(3*i+7, float64(i)*1e-3, 1, 5))
	}
	run := func(reqs []workload.Request) *Outcome {
		out, err := node.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(ident), run(shifted)
	for i := range a.Finishes {
		if a.Finishes[i] != b.Finishes[i] {
			t.Fatalf("request %d: finish %g with identity IDs, %g with shifted IDs", i, a.Finishes[i], b.Finishes[i])
		}
	}
	allocIdent := testing.AllocsPerRun(20, func() { run(ident) })
	allocShifted := testing.AllocsPerRun(20, func() { run(shifted) })
	if allocShifted != allocIdent {
		t.Fatalf("shifted-ID stream: %.1f allocs/run, identity stream %.1f (want equal: no ID map)", allocShifted, allocIdent)
	}
}

// TestRunRejectsDuplicateIDs: duplicates are caught whether the stream
// is its own calendar (sorted arrivals) or takes the copy-and-sort path.
func TestRunRejectsDuplicateIDs(t *testing.T) {
	node, _ := testNode(t, fullPolicy{})
	sorted := []workload.Request{req(4, 0, 1, 5), req(9, 0.001, 1, 5), req(4, 0.002, 1, 5)}
	unsorted := []workload.Request{req(4, 0.002, 1, 5), req(9, 0.001, 1, 5), req(9, 0, 1, 5)}
	for _, reqs := range [][]workload.Request{sorted, unsorted} {
		if _, err := node.Run(reqs); err == nil || !strings.Contains(err.Error(), "duplicate request ID") {
			t.Errorf("stream %v: Run error = %v, want duplicate request ID", reqs, err)
		}
	}
	// Decreasing but distinct IDs on an unsorted stream still run, with
	// outcomes addressed by input position.
	ok := []workload.Request{req(9, 0.002, 1, 5), req(4, 0, 1, 5)}
	out, err := node.Run(ok)
	if err != nil {
		t.Fatal(err)
	}
	if out.Finishes[1] < 0 || out.Finishes[0] < out.Finishes[1] {
		t.Fatalf("finishes %v not addressed by input position", out.Finishes)
	}
}
