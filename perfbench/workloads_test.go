package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallPlanet is planet-diurnal cut to its first n requests.
func smallPlanet(t *testing.T, rec *recorder, n int) *planetCase {
	t.Helper()
	c := &planetCase{seed: 5}
	if err := c.setup(rec); err != nil {
		t.Fatal(err)
	}
	c.prepare()
	c.spec.MaxRequests = n
	return c
}

// TestTracedPlanetMatchesUntraced runs the traced path (wrapped
// policies on concurrent chips, chip replays, layer split) and checks it
// against an untraced run of the same input, pinned to GOMAXPROCS 1 like
// the benchmark's traced runs.
func TestTracedPlanetMatchesUntraced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100000
	plain := smallPlanet(t, nil, n)
	if err := plain.run(nil); err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.check()
	if err != nil {
		t.Fatal(err)
	}

	rec := &recorder{}
	c := smallPlanet(t, rec, n)
	tr := newTracer()
	if err := c.run(tr); err != nil {
		t.Fatal(err)
	}
	pt, err := rec.finish()
	if err != nil {
		t.Fatal(err)
	}
	s := &sample{}
	L, err := tracedLayers(c, tr, time.Millisecond, pt, gcStat{}, s)
	if err != nil {
		t.Fatal(err)
	}
	chips, tasks := 0, 0
	for _, cr := range c.out.PerChip {
		if cr != nil && cr.Outcome != nil {
			chips++
			tasks += len(cr.Requests)
		}
	}
	got, arrivals, err := c.check()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || arrivals != n {
		t.Fatalf("traced digest %s (%d arrivals), untraced %s (%d)", got, arrivals, want, n)
	}
	if L["sim.node_runs"] != float64(chips) || L["sim.tasks"] != float64(tasks) || L["trace.requests"] != n {
		t.Fatalf("replayed %v chips and %v tasks of %d chips, %d tasks; %v requests", L["sim.node_runs"], L["sim.tasks"], chips, tasks, L["trace.requests"])
	}
	if L["sched.elastic.calls"] != float64(pt.layers["sched.elastic"].calls) || L["sched.elastic.s"] <= 0 {
		t.Fatalf("policy layer %v calls / %v s, cluster run made %d calls", L["sched.elastic.calls"], L["sched.elastic.s"], pt.layers["sched.elastic"].calls)
	}
	sum := L["cluster.front_s"] + L["sim.self_s"] + L["sched.elastic.s"] + L["refission.next_s"] + L["perfbench.clock_s"]
	if d := sum - L["cluster.run_s"]; d > 1e-9 || d < -1e-9 {
		t.Fatalf("front %v + engine %v + policy %v + %v + clock %v != cluster %v", L["cluster.front_s"],
			L["sim.self_s"], L["sched.elastic.s"], L["refission.next_s"], L["perfbench.clock_s"], L["cluster.run_s"])
	}
}

// TestRefereesCatchCorruption checks that the chip replay and the
// conservation identity reject a tampered outcome.
func TestRefereesCatchCorruption(t *testing.T) {
	c := smallPlanet(t, nil, 5000)
	if err := c.run(nil); err != nil {
		t.Fatal(err)
	}
	out := c.out
	if _, _, err := replayChips(c.base, c.config(), out); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	chip := out.PerChip[0].Outcome
	chip.Finishes[0] += 1e-9
	if _, _, err := replayChips(c.base, c.config(), out); err == nil || !strings.Contains(err.Error(), "finish 0") {
		t.Fatalf("replay accepted a shifted finish: %v", err)
	}
	chip.Finishes[0] -= 1e-9
	out.Completed--
	if err := conserved(out, len(c.reqs)); err == nil {
		t.Fatal("conservation accepted a lost request")
	}
}

// TestTracedFiguresMatchUntraced runs the paper-figs sweep, cut to small
// streams, traced at GOMAXPROCS 1 while the engine runs several instances
// concurrently, and checks that the policy time stays within the figure
// time and the figure rows equal an untraced sweep's.
func TestTracedFiguresMatchUntraced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small := func(rec *recorder) *figsCase {
		c := &figsCase{seed: 3}
		if err := c.setup(rec); err != nil {
			t.Fatal(err)
		}
		c.suite.Opt.Requests = 30
		return c
	}
	plain := small(nil)
	if err := plain.run(nil); err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.check()
	if err != nil {
		t.Fatal(err)
	}

	rec := &recorder{}
	c := small(rec)
	tr := newTracer()
	if err := c.run(tr); err != nil {
		t.Fatal(err)
	}
	pt, err := rec.finish()
	if err != nil {
		t.Fatal(err)
	}
	L, err := tracedLayers(c, tr, 0, pt, gcStat{}, &sample{})
	if err != nil {
		t.Fatal(err)
	}
	got, reqs, err := c.check()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || reqs != 30*c.suite.Opt.Instances {
		t.Fatalf("traced digest %s (%d requests), untraced %s", got, reqs, want)
	}
	if L["sched.spatial.calls"] == 0 || L["prema.calls"] == 0 {
		t.Fatalf("policy calls: spatial %v, prema %v", L["sched.spatial.calls"], L["prema.calls"])
	}
	figs := L["experiments.table2_s"] + L["experiments.serving_s"] + L["experiments.fig16_s"] +
		L["experiments.fig17_s"] + L["experiments.fig18_s"]
	policy := L["sched.spatial.s"] + L["prema.s"] + L["sched.elastic.s"] + L["refission.next_s"]
	clock := L["perfbench.clock_s"]
	if self := L["experiments.self_s"]; self <= 0 || math.Abs(figs-policy-clock-self) > 1e-9 {
		t.Fatalf("figures %v s = policies %v s + clock %v s + self %v s does not hold", figs, policy, clock, self)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the per-layer metrics the
// traced run prints are the ones BENCHMARK.json declares, in its order
// and with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if got := perLayerMetrics[i]; got.name != m.Name || got.unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, got.name, got.unit)
		}
	}
}

// TestTallyChecksVariantDigests checks that each sample is held to its
// own variant's digest: the committed one at the default seed, the
// variant's first sample's at any other.
func TestTallyChecksVariantDigests(t *testing.T) {
	w, _ := workloadByName("planet-diurnal")
	want := committedDigests()[w.name].SHA256
	if len(want) != variants {
		t.Fatalf("digests.json holds %d digests for %s, want %d", len(want), w.name, variants)
	}
	ok := func(d string) *sample { return &sample{Attempted: 1, Digest: d} }

	var t1 tally
	t1.add(w, w.defaultSeed, 1, ok(want[1]))
	t1.add(w, w.defaultSeed, 2, ok(want[1])) // variant 1's digest on variant 2
	if t1.attempted != 2 || t1.failed != 1 {
		t.Fatalf("default seed: %d of %d failed, want 1 of 2", t1.failed, t1.attempted)
	}

	var t2 tally
	t2.add(w, 12345, 0, ok("a"))
	t2.add(w, 12345, 1, ok("b"))
	t2.add(w, 12345, 0, ok("a"))
	t2.add(w, 12345, 1, ok("c"))
	if t2.attempted != 4 || t2.failed != 1 {
		t.Fatalf("other seed: %d of %d failed, want 1 of 4", t2.failed, t2.attempted)
	}
	if got := t2.reported(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("reported digests %v, want [a b]", got)
	}
}
