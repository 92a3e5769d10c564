package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// Sample-process modes:
//
//	sample  untraced; one workload run
//	ref     untraced; one run (the traced run's overhead reference)
//	traced  one run with spans and timing wrappers, then chip replays
func runChild(w workloadDef, seed int64, mode string) int {
	s, err := runSample(w, seed, mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s sample (%s): %v\n", w.name, mode, err)
		return 1
	}
	printLine("", s)
	return 0
}

func runSample(w workloadDef, seed int64, mode string) (*sample, error) {
	var rec *recorder
	var tr *tracer
	switch mode {
	case "sample", "ref":
	case "traced":
		rec, tr = &recorder{}, newTracer()
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	c := w.newCase(seed)
	s := &sample{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	gcSetup := readGC()
	start := time.Now()
	err := c.setup(rec)
	setup := time.Since(start)
	gcSetup = readGC().minus(gcSetup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s.SetupS = setup.Seconds()
	c.prepare()

	var ms0, ms1 runtime.MemStats
	s.Attempted++
	gcRun := readGC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start = time.Now()
	err = c.run(tr)
	d := time.Since(start)
	s.RunEndNs = clockNs(clockMonotonic)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	gcRun = readGC().minus(gcRun)
	s.RunS = d.Seconds()
	s.CPUS = cpu1 - cpu0
	s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		s.fail(fmt.Errorf("run: %w", err))
		return s, nil
	}
	if tr != nil {
		pt, err := rec.finish()
		if err == nil {
			s.Layers, err = tracedLayers(c, tr, setup, pt, gcSetup.plus(gcRun), s)
		}
		if err != nil {
			s.fail(err)
		}
	}
	digest, reqs, err := c.check()
	if err != nil {
		s.fail(fmt.Errorf("run: %w", err))
		return s, nil
	}
	s.Requests, s.Digest = reqs, digest
	return s, nil
}

// fail records err against the sample's operations; a second error in
// an operation that already failed does not count it twice.
func (s *sample) fail(err error) {
	if s.Failed < s.Attempted {
		s.Failed++
	}
	s.Errors = append(s.Errors, err.Error())
}

// wallS is the sample's wall time from just before the parent started
// the process to the end of its last run.
func (s *sample) wallS() float64 {
	return float64(s.RunEndNs-s.StartNs) / 1e9
}

// attribute adds the traced wall time and the part of it that no layer
// span covers. The wall time is taken from outside the layers, so
// process start-up, package initialisation and the benchmark's glue
// between spans show up as unattributed.
func (s *sample) attribute() error {
	if s.Layers == nil {
		return fmt.Errorf("traced run reported no layers")
	}
	wall := s.wallS()
	un := wall - s.SpannedS
	s.Layers["traced.wall_s"] = wall
	s.Layers["unattributed_s"] = un
	s.Layers["unattributed_frac"] = un / wall
	switch {
	case un < 0:
		return fmt.Errorf("layer spans (%.3f s) exceed the traced wall time (%.3f s)", s.SpannedS, wall)
	case un/wall > maxUnattributed:
		return fmt.Errorf("layer spans explain only %.1f%% of the traced wall time", 100*(1-un/wall))
	}
	return nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcStat is a reading of the runtime's GC counters.
type gcStat struct {
	cpuS   float64
	cycles float64
}

func readGC() gcStat {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(ms)
	var g gcStat
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		g.cpuS = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = float64(ms[1].Value.Uint64())
	}
	return g
}

func (g gcStat) minus(o gcStat) gcStat { return gcStat{g.cpuS - o.cpuS, g.cycles - o.cycles} }
func (g gcStat) plus(o gcStat) gcStat  { return gcStat{g.cpuS + o.cpuS, g.cycles + o.cycles} }

// maxUnattributed is the largest share of the traced wall time the layer
// spans may leave unexplained.
const maxUnattributed = 0.05

// remainderSlack is how far below zero, as a share of the span it is
// taken from, a layer's remainder may read before the traced run fails.
// cluster.front_s subtracts a replay measured seconds after the cluster
// run, and on a shared host the two can differ by several percent of the
// cluster span; a layer timed twice or in the wrong place reads much
// further below zero.
const remainderSlack = 0.1

// tracedLayers turns one traced run into per-layer metrics and records
// in s the time its top-level spans (compile and the workload's own
// spans) cover; the parent sets that against the wall time. The cluster
// span splits into the chip engines, measured by replaying each chip
// standalone, and the front end, the remainder. The engine splits into
// the policies, timed by the wrappers, and the engine's own loop. A
// remainder further below zero than remainderSlack means a layer was
// timed wrongly, and fails the run.
func tracedLayers(c benchCase, tr *tracer, setup time.Duration, pt policyTotals, gc gcStat, s *sample) (map[string]float64, error) {
	L := map[string]float64{}
	L["compiler.compile_s"] = setup.Seconds()
	spanned, figs := setup, time.Duration(0)
	for name, d := range tr.spans {
		L[name+"_s"] = d.Seconds()
		spanned += d
		if strings.HasPrefix(name, "experiments.") {
			figs += d
		}
	}
	s.SpannedS = spanned.Seconds()
	L["gc.cpu_s"] = gc.cpuS
	L["gc.cycles"] = gc.cycles
	L["sim.node_runs"] = float64(pt.nodeRuns)

	// policyNs sums the policy CPU time of the engine runs the layers
	// come from: the chip replays on planet-diurnal, the run itself on
	// paper-figs. Each call's time is net of the clock's own cost, and
	// clock is what the timing added to the engine span around them.
	var policyNs int64
	var clock time.Duration
	cost := calibrate()
	addPolicy := func(pt policyTotals) {
		add := func(calls, ns string, st stat) {
			net := max(st.ns-st.calls*cost.charged, 0)
			clock += time.Duration(st.calls * cost.wall)
			L[calls] = float64(st.calls)
			L[ns] = time.Duration(net).Seconds()
			policyNs += net
		}
		for layer, st := range pt.layers {
			add(layer+".calls", layer+".s", st)
		}
		add("refission.next_calls", "refission.next_s", pt.next)
	}

	if pc, ok := c.(*planetCase); ok {
		out, cfg, base, arrivals := pc.out, pc.config(), pc.base, len(pc.reqs)
		if out == nil {
			return L, fmt.Errorf("traced run left no cluster outcome")
		}
		// Policies are timed in the replay, where the engine time is.
		rrec := &recorder{}
		replayD, tasks, err := replayChips(rrec.instrument(base), cfg, out)
		s.Attempted++
		if err != nil {
			return L, err
		}
		rpt, err := rrec.finish()
		if err != nil {
			return L, err
		}
		if pt.calls() != rpt.calls() {
			return L, fmt.Errorf("chip replays made %d policy calls, the cluster run %d", rpt.calls(), pt.calls())
		}
		addPolicy(rpt)
		// The cluster run and the replay made the same timed calls, so
		// the clock cost cancels in the front end's share.
		front := L["cluster.run_s"] - replayD.Seconds()
		simS := (replayD - clock).Seconds()
		L["sim.run_s"] = simS
		L["sim.self_s"] = simS - time.Duration(policyNs).Seconds()
		if front < -remainderSlack*L["cluster.run_s"] || L["sim.self_s"] < -remainderSlack*simS {
			return L, fmt.Errorf("negative remainder: cluster.front_s %.4f, sim.self_s %.4f", front, L["sim.self_s"])
		}
		L["sim.tasks"] = float64(tasks)
		L["sim.node_runs"] = float64(rpt.nodeRuns)
		if tasks > 0 {
			L["sim.ns_per_task"] = simS * 1e9 / float64(tasks)
		}
		L["cluster.front_s"] = front
		L["cluster.front_ns_per_req"] = front * 1e9 / float64(arrivals)
		L["cluster.batches"] = float64(out.Batches)
		L["cluster.mean_batch"] = out.MeanBatchSize
		L["cluster.migrated"] = float64(out.Migrated)
		L["cluster.shed"] = float64(out.ShedFront + out.ShedChips + out.ShedDrain)
		L["cluster.dispatch_max_over_mean"] = maxOverMean(out.Dispatched)
		for _, chip := range out.PerChip {
			if chip != nil && chip.Outcome != nil {
				L["sim.preemptions"] += float64(chip.Outcome.Preemptions)
				L["sim.refissions"] += float64(chip.Outcome.Refissions)
			}
		}
		if gen, ok := L["trace.gen_s"]; ok {
			L["trace.requests"] = float64(arrivals)
			L["trace.ns_per_req"] = gen * 1e9 / float64(arrivals)
		}
	} else {
		addPolicy(pt)
		self := figs - time.Duration(policyNs) - clock
		L["experiments.self_s"] = self.Seconds()
		if self < -time.Duration(remainderSlack*float64(figs)) {
			return L, fmt.Errorf("policy time %v and clock cost %v exceed the figure time %v", time.Duration(policyNs), clock, figs)
		}
	}
	L["perfbench.clock_s"] = clock.Seconds()
	for _, p := range []string{"sched.spatial.", "prema."} {
		if n := L[p+"calls"]; n > 0 {
			L[p+"ns_per_call"] = L[p+"s"] * 1e9 / n
		}
	}
	return L, nil
}

// calls is the total number of policy calls.
func (p policyTotals) calls() int64 {
	n := p.next.calls
	for _, st := range p.layers {
		n += st.calls
	}
	return n
}

func maxOverMean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxV, total := 0, 0
	for _, x := range xs {
		total += x
		if x > maxV {
			maxV = x
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxV) * float64(len(xs)) / float64(total)
}

// perLayerMetric is one per-layer metric of BENCHMARK.json.
type perLayerMetric struct{ name, unit string }

var perLayerMetrics = []perLayerMetric{
	{"compiler.compile_s", "s"},
	{"perfbench.clock_s", "s"},
	{"trace.gen_s", "s"},
	{"trace.ns_per_req", "ns"},
	{"trace.requests", "count"},
	{"cluster.run_s", "s"},
	{"cluster.front_s", "s"},
	{"cluster.front_ns_per_req", "ns"},
	{"cluster.batches", "count"},
	{"cluster.mean_batch", "count"},
	{"cluster.dispatch_max_over_mean", "ratio"},
	{"cluster.migrated", "count"},
	{"cluster.shed", "count"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.tasks", "count"},
	{"sim.ns_per_task", "ns"},
	{"sim.node_runs", "count"},
	{"sim.preemptions", "count"},
	{"sim.refissions", "count"},
	{"sched.spatial.calls", "count"},
	{"sched.spatial.s", "s"},
	{"sched.spatial.ns_per_call", "ns"},
	{"prema.calls", "count"},
	{"prema.s", "s"},
	{"prema.ns_per_call", "ns"},
	{"sched.elastic.calls", "count"},
	{"sched.elastic.s", "s"},
	{"refission.next_calls", "count"},
	{"refission.next_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.serving_s", "s"},
	{"experiments.fig16_s", "s"},
	{"experiments.fig17_s", "s"},
	{"experiments.fig18_s", "s"},
	{"experiments.self_s", "s"},
	{"obs.attrib_report_s", "s"},
	{"gc.cpu_s", "s"},
	{"gc.cycles", "count"},
	{"traced.wall_s", "s"},
	{"tracing.overhead_frac", "ratio"},
	{"unattributed_s", "s"},
	{"unattributed_frac", "ratio"},
}
