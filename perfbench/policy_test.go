package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// toyModels are two small convolutional models, cheap to compile.
var toyModels = []string{"toy-a", "toy-b"}

// toyPrograms compiles the toy models for cfg.
func toyPrograms(t *testing.T, cfg arch.Config, fission bool) map[string]*compiler.Program {
	t.Helper()
	progs := map[string]*compiler.Program{}
	for i, name := range toyModels {
		bld := dnn.NewBuilder(name, "classification", 32, 32, 8)
		bld.Conv("c1", 32+16*i, 3, 1)
		bld.Conv("c2", 32+16*i, 3, 1)
		bld.GlobalPool("gp")
		bld.FC("fc", 10)
		net, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := compiler.CompileProgram(net, cfg, fission)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	return progs
}

// toyRequests is a Poisson stream loaded enough that tasks overlap and
// get preempted, with deadlines tight enough that some are missed.
func toyRequests(cfg arch.Config, progs map[string]*compiler.Program, n int) []workload.Request {
	iso := cfg.Seconds(progs[toyModels[0]].Table(cfg.NumSubarrays()).TotalCycles)
	rng := rand.New(rand.NewSource(3))
	reqs := make([]workload.Request, n)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() * iso / 3
		reqs[i] = workload.Request{
			ID: i, Model: toyModels[rng.Intn(2)], Domain: "classification",
			Arrival: t, Priority: rng.Intn(11) + 1, QoS: 4 * iso, Deadline: t + 4*iso,
		}
	}
	return reqs
}

func TestWrapperMatchesInnerPolicy(t *testing.T) {
	pl, mono := arch.Planaria(), arch.Monolithic()
	plProgs, monoProgs := toyPrograms(t, pl, true), toyPrograms(t, mono, false)
	cases := []struct {
		name   string
		cfg    arch.Config
		progs  map[string]*compiler.Program
		policy func() sim.Policy
		next   bool // the policy is a sim.Refissioner
	}{
		{"sched.spatial", pl, plProgs, func() sim.Policy { return sched.NewSpatial(pl) }, false},
		{"prema", mono, monoProgs, func() sim.Policy { return prema.NewToken(mono) }, false},
		{"sched.elastic", pl, plProgs, func() sim.Policy { return sched.NewElastic(pl) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := tc.policy()
			tm, w, err := wrapPolicy(inner)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := capsOf(w), capsOf(inner); got != want {
				t.Fatalf("wrapper interface set %05b, inner %05b", got, want)
			}
			if tm.layer != tc.name || w.Name() != inner.Name() || w.Quantum() != inner.Quantum() {
				t.Fatalf("layer %q name %q quantum %v; want %q %q %v",
					tm.layer, w.Name(), w.Quantum(), tc.name, inner.Name(), inner.Quantum())
			}

			reqs := toyRequests(tc.cfg, tc.progs, 300)
			run := func(p sim.Policy) *sim.Outcome {
				n := &sim.Node{Cfg: tc.cfg, Policy: p, Programs: tc.progs, Params: energy.Default()}
				out, err := n.Run(reqs)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			bare, wrapped := run(tc.policy()), run(w)
			for i := range bare.Finishes {
				if math.Float64bits(bare.Finishes[i]) != math.Float64bits(wrapped.Finishes[i]) {
					t.Fatalf("finish %d: wrapped %v, bare %v", i, wrapped.Finishes[i], bare.Finishes[i])
				}
			}
			if bare.Preemptions != wrapped.Preemptions || bare.Refissions != wrapped.Refissions {
				t.Fatalf("preemptions/refissions wrapped %d/%d, bare %d/%d",
					wrapped.Preemptions, wrapped.Refissions, bare.Preemptions, bare.Refissions)
			}
			if bare.Preemptions == 0 {
				t.Fatal("stream too light: no preemptions, the test would not exercise re-allocation")
			}
			if tm.alloc.calls == 0 || tm.alloc.ns <= 0 {
				t.Fatalf("allocation calls not timed: %+v", tm.alloc)
			}
			if (tm.next.calls > 0) != tc.next {
				t.Fatalf("NextRefission calls %d, refissioner %v", tm.next.calls, tc.next)
			}
		})
	}
}

func TestWrapperRefusesUnknownPolicy(t *testing.T) {
	if _, _, err := wrapPolicy(&sched.FCFS{}); err == nil {
		t.Fatal("wrapped a policy with no layer")
	}
}

// TestCallClockExcludesOffCPUTime checks that a timed call is charged
// only the CPU time of its own thread: a call that is descheduled (here,
// asleep) while other goroutines run must not take in their time.
func TestCallClockExcludesOffCPUTime(t *testing.T) {
	var st stat
	t0 := startCall()
	time.Sleep(50 * time.Millisecond)
	st.end(t0)
	if st.calls != 1 || st.ns < 0 || st.ns > int64(10*time.Millisecond) {
		t.Fatalf("a 50 ms sleep was charged %v over %d calls", time.Duration(st.ns), st.calls)
	}
	t0 = startCall()
	for spin := time.Now(); time.Since(spin) < 20*time.Millisecond; {
	}
	st.end(t0)
	if st.ns < int64(5*time.Millisecond) {
		t.Fatalf("20 ms of spinning was charged %v", time.Duration(st.ns))
	}
}

func TestRecorderSumsWrappers(t *testing.T) {
	var r recorder
	r.wrappers = []*timed{
		{layer: "prema", alloc: stat{calls: 2, ns: 10}},
		{layer: "prema", alloc: stat{calls: 3, ns: 5}},
		{layer: "sched.elastic", alloc: stat{calls: 1, ns: 1}, next: stat{calls: 4, ns: 8}},
	}
	tot, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if tot.nodeRuns != 3 || tot.layers["prema"] != (stat{5, 15}) || tot.next != (stat{4, 8}) || tot.calls() != 10 {
		t.Fatalf("totals %+v", tot)
	}
	if len(r.wrappers) != 0 {
		t.Fatal("finish did not reset the recorder")
	}
}

func TestMedianAndMaxOverMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if r := maxOverMean([]int{1, 3}); r != 1.5 {
		t.Fatalf("maxOverMean = %v", r)
	}
}
