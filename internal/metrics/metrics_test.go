package metrics

import (
	"errors"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// fastSystem builds a Planaria system over a tiny synthetic model so the
// metric searches stay fast.
func fastSystem(t *testing.T) (System, workload.Scenario) {
	t.Helper()
	cfg := arch.Planaria()
	// Reuse a known QoS name; heavy enough that a 40-request instance can
	// exceed the QoS-H deadline when overloaded.
	b := dnn.NewBuilder("ResNet-50", "classification", 64, 64, 32)
	b.Conv("c1", 128, 3, 1)
	b.Conv("c2", 128, 3, 1)
	b.Conv("c3", 256, 3, 2)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileProgram(net, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{
		Name:     "fast",
		Cfg:      cfg,
		Programs: map[string]*compiler.Program{"ResNet-50": prog},
		Params:   energy.Default(),
		NewPolicy: func() sim.Policy {
			return sched.NewSpatial(cfg)
		},
	}
	sc := workload.Scenario{Name: "fast", Models: []string{"ResNet-50"}}
	return sys, sc
}

func fastOpt() Options { return Options{Requests: 80, Instances: 2, Seed: 3} }

func TestEvaluateBasics(t *testing.T) {
	sys, sc := fastSystem(t)
	a, err := Evaluate(sys, sc, workload.QoSSoft, 50, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.SLARate < 0 || a.SLARate > 1 {
		t.Errorf("SLARate = %g", a.SLARate)
	}
	if a.Fairness <= 0 || a.Fairness > 1+1e-9 {
		t.Errorf("Fairness = %g", a.Fairness)
	}
	if a.EnergyJ <= 0 || a.MeanLatMS <= 0 {
		t.Errorf("degenerate aggregate %+v", a)
	}
}

func TestEvaluateRejectsBadOptions(t *testing.T) {
	sys, sc := fastSystem(t)
	if _, err := Evaluate(sys, sc, workload.QoSSoft, 50, Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestThroughputFindsSaturation(t *testing.T) {
	sys, sc := fastSystem(t)
	tp, err := Throughput(sys, sc, workload.QoSHard, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatalf("throughput = %g, expected a sustainable rate", tp)
	}
	if tp >= 1<<19 {
		t.Fatalf("throughput %g hit the search cap — workload cannot saturate", tp)
	}
	// The found rate must itself satisfy the SLA...
	ok, err := meetsAt(sys, sc, workload.QoSHard, tp, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("reported throughput %g does not meet the SLA", tp)
	}
	// ...and the SLA must fail well above it.
	ok, err = meetsAt(sys, sc, workload.QoSHard, tp*4, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("4x the reported throughput still meets the SLA — search under-estimated")
	}
}

// TestThroughputMatchesFullRuns: the verdict-only probes decide every
// rate exactly as full runs judged by Evaluate's SLA rate would, so the
// search lands on the same throughput.
func TestThroughputMatchesFullRuns(t *testing.T) {
	sys, sc := fastSystem(t)
	for _, lvl := range workload.Levels {
		got, err := Throughput(sys, sc, lvl, fastOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaxQPS(func(qps float64) (bool, error) {
			a, err := Evaluate(sys, sc, lvl, qps, fastOpt())
			return a.SLARate >= 0.5, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Throughput %g, full-run search %g", lvl.Name, got, want)
		}
	}
}

// TestMaxQPSStepCriterion: on a step criterion the search returns a
// passing rate within 5% of the step, 0 when even 0.5 QPS fails, and
// the first error it meets.
func TestMaxQPSStepCriterion(t *testing.T) {
	for _, limit := range []float64{0.4, 0.5, 0.9, 7, 123.4, 5000, 1 << 18} {
		got, err := MaxQPS(func(qps float64) (bool, error) { return qps <= limit, nil })
		if err != nil {
			t.Fatal(err)
		}
		if limit < 0.5 {
			if got != 0 {
				t.Errorf("limit %g: got %g, want 0", limit, got)
			}
			continue
		}
		if got > limit || got < limit/1.05 {
			t.Errorf("limit %g: got %g, want within 5%% below", limit, got)
		}
	}
	boom := errors.New("probe failed")
	calls := 0
	if _, err := MaxQPS(func(qps float64) (bool, error) {
		calls++
		if qps > 10 {
			return false, boom
		}
		return true, nil
	}); !errors.Is(err, boom) || calls != 6 {
		t.Errorf("err = %v after %d probes, want the probe error after 6", err, calls)
	}
}

func TestThroughputMonotoneInQoS(t *testing.T) {
	sys, sc := fastSystem(t)
	soft, err := Throughput(sys, sc, workload.QoSSoft, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Throughput(sys, sc, workload.QoSHard, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if hard > soft {
		t.Errorf("hard-QoS throughput %g exceeds soft-QoS %g", hard, soft)
	}
}

func TestMinNodesMonotoneAndConsistent(t *testing.T) {
	sys, sc := fastSystem(t)
	opt := fastOpt()
	// A rate one node can handle.
	tp, err := Throughput(sys, sc, workload.QoSHard, opt)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := MinNodes(sys, sc, workload.QoSHard, tp*0.5, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 1 {
		t.Errorf("half the single-node capacity needs %d nodes", n1)
	}
	// A rate beyond one node.
	n2, err := MinNodes(sys, sc, workload.QoSHard, tp*4, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < 2 {
		t.Errorf("4x single-node capacity handled by %d node(s)", n2)
	}
}

func TestDispatchBalances(t *testing.T) {
	reqs, err := workload.Generate(workload.Scenario{Name: "x", Models: []string{"ResNet-50"}},
		workload.QoSSoft, 1000, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	iso := map[string]float64{"ResNet-50": 0.001}
	per, err := dispatch(reqs, 3, iso)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, sub := range per {
		if len(sub) < 10 {
			t.Errorf("unbalanced dispatch: node got %d of 90", len(sub))
		}
		for _, r := range sub {
			if seen[r.ID] {
				t.Fatalf("request %d dispatched twice", r.ID)
			}
			seen[r.ID] = true
		}
	}
	if len(seen) != 90 {
		t.Fatalf("dispatched %d of 90", len(seen))
	}
}

func TestDispatchUnknownModel(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Model: "mystery"}}
	if _, err := dispatch(reqs, 2, map[string]float64{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
