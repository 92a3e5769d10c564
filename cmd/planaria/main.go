// Command planaria regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	planaria [flags] <experiment>...
//
// Experiments: table1, table2, fig12, fig13, fig14, fig15, fig16, fig17,
// fig18, fig19, ablation, models, trace, chaos, cluster, attrib,
// autoscale, all.
//
// The trace experiment runs one instrumented co-location instance on both
// systems and writes a Perfetto-loadable timeline (-trace-out) and a
// metrics snapshot (-metrics-out); open the timeline at ui.perfetto.dev.
//
// The chaos experiment sweeps fault-injection rates (-fault-rates) or
// replays a JSON fault schedule (-faults, see examples/chaos/faults.json)
// and compares SLA retention under Planaria's fission masking + load
// shedding (-shed) against PREMA's monolithic derate. -chaos-out writes
// the deterministic BENCH_chaos.json artifact.
//
// The cluster experiment sweeps multi-chip serving: cluster sizes
// (-chips), balancing policies (-policy), and optional dynamic batching
// (-batch-window); each cell reports its bisected maximum SLA-meeting
// QPS for both systems. -cluster-out writes the deterministic
// BENCH_cluster.json artifact.
//
// The attrib experiment answers "why did my request miss its SLA?": it
// runs a mixed-QoS stream through the cluster with the attribution
// ledger on and prints, per model × QoS level, where each request's
// latency went (admit-wait, batch-wait, queue-wait, compute,
// preempt-stall, retry-backoff, fault-stall), the dominant cause of
// each SLA violation, and the per-chip/fleet utilization breakdown
// (busy/idle/faulted/reconfig cycles). -attrib-out writes the
// deterministic BENCH_attrib.json artifact.
//
// The autoscale experiment replays a planet-scale workload trace — a
// 24 h diurnal rate curve with flash crowds (-trace-file for a custom
// JSON spec) — against a grid of static fleet sizes (-statics) and one
// autoscaled fleet (-ceiling slots), comparing SLA attainment against
// chip-hours billed. -autoscale-out writes the deterministic
// BENCH_autoscale.json artifact.
//
// Flags tune simulation fidelity; the defaults match EXPERIMENTS.md.
// Profiling flags (-cpuprofile, -memprofile, -phasestats) live here in
// the CLI: the simulation packages never read the wall clock (enforced by
// planaria-vet), so all wall-time accounting stays in this layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"planaria/internal/cluster"
	"planaria/internal/dnn"
	"planaria/internal/experiments"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// phaseClock reports wall-clock and heap-allocation deltas per CLI phase
// on stderr when -phasestats is set.
type phaseClock struct {
	enabled   bool
	start     time.Time
	last      time.Time
	lastBytes uint64
	lastObjs  uint64
}

func newPhaseClock(enabled bool) *phaseClock {
	p := &phaseClock{enabled: enabled, start: time.Now()}
	p.last = p.start
	if enabled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.lastBytes, p.lastObjs = ms.TotalAlloc, ms.Mallocs
	}
	return p
}

// mark closes the current phase under the given name.
func (p *phaseClock) mark(name string) {
	if !p.enabled {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "phase %-12s %8.2fs  %10.1f MB  %12d allocs\n",
		name, time.Since(p.last).Seconds(),
		float64(ms.TotalAlloc-p.lastBytes)/1e6, ms.Mallocs-p.lastObjs)
	p.last = time.Now()
	p.lastBytes, p.lastObjs = ms.TotalAlloc, ms.Mallocs
}

func scenarioByName(name string) (workload.Scenario, error) {
	for _, sc := range workload.Scenarios() {
		if strings.EqualFold(sc.Name, name) || strings.EqualFold(sc.Name, "Workload-"+name) {
			return sc, nil
		}
	}
	return workload.Scenario{}, fmt.Errorf("unknown scenario %q (want A, B, or C)", name)
}

func qosByName(name string) (workload.QoSLevel, error) {
	for _, lvl := range workload.Levels {
		if strings.EqualFold(lvl.Name, name) || strings.EqualFold(lvl.Name, "QoS-"+name) {
			return lvl, nil
		}
	}
	return workload.QoSLevel{}, fmt.Errorf("unknown QoS level %q (want S, M, or H)", name)
}

func main() {
	os.Exit(run())
}

func run() int {
	requests := flag.Int("requests", 400, "requests per workload instance")
	instances := flag.Int("instances", 3, "workload instances (seeds) per evaluation point")
	seed := flag.Int64("seed", 1, "base random seed")
	rate := flag.Float64("rate", 100, "fixed arrival rate (QPS) for fig16 and trace")
	profile := flag.String("profile", "", "print the per-layer compiled profile of a model (e.g. -profile ResNet-50)")
	profAlloc := flag.Int("alloc", 16, "subarray allocation for -profile")
	scenario := flag.String("scenario", "A", "workload scenario for trace (A, B, or C)")
	qosName := flag.String("qos", "M", "QoS level for trace (S, M, or H)")
	traceOut := flag.String("trace-out", "", "write the trace experiment's Perfetto timeline JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write the trace experiment's metrics snapshot JSON to this file")
	faultsFile := flag.String("faults", "", "JSON fault schedule to replay in the chaos experiment (overrides -fault-rates)")
	faultRates := flag.String("fault-rates", "", "comma-separated fault rates (faults/s) for the chaos sweep (default 0,10,40,160)")
	shedName := flag.String("shed", "doomed", "Planaria admission-control policy for chaos (none, doomed, or priority)")
	chaosOut := flag.String("chaos-out", "", "write the chaos experiment's BENCH_chaos.json artifact to this file")
	chipsSpec := flag.String("chips", "", "comma-separated cluster sizes for the cluster experiment (default 1,2,4)")
	policySpec := flag.String("policy", "all", "comma-separated balancing policies for the cluster experiment (round-robin, least-work, affinity, or all)")
	batchWindow := flag.Float64("batch-window", 0, "cluster dynamic-batching window in seconds (0 disables batching)")
	maxBatch := flag.Int("max-batch", 8, "cluster batch size cap (with -batch-window > 0)")
	clusterOut := flag.String("cluster-out", "", "write the cluster experiment's BENCH_cluster.json artifact to this file")
	attribOut := flag.String("attrib-out", "", "write the attrib experiment's BENCH_attrib.json artifact to this file")
	traceFile := flag.String("trace-file", "", "JSON trace spec for the autoscale experiment (default: the built-in 24 h planet-day trace)")
	staticsSpec := flag.String("statics", "", "comma-separated static fleet sizes for the autoscale experiment (default 1,2,3)")
	ceiling := flag.Int("ceiling", 0, "autoscaled fleet slot ceiling for the autoscale experiment (default 6)")
	autoscaleOut := flag.String("autoscale-out", "", "write the autoscale experiment's BENCH_autoscale.json artifact to this file")
	elastic := flag.Bool("elastic", false, "add the elastic re-fission system as an extra axis in the cluster, autoscale, and ablation experiments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	phasestats := flag.Bool("phasestats", false, "report per-phase wall-clock and allocations on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: planaria [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 ablation models trace chaos cluster attrib autoscale all\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "planaria:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "planaria:", err)
			}
		}()
	}
	phases := newPhaseClock(*phasestats)

	if *profile != "" {
		rows, err := experiments.Profile(*profile, *profAlloc)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatProfile(*profile, *profAlloc, rows))
		phases.mark("profile")
		return 0
	}
	if flag.NArg() == 0 {
		flag.Usage()
		return 2
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		a = strings.ToLower(a)
		if a == "all" {
			for _, e := range []string{"models", "table1", "table2", "fig12", "fig13",
				"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation"} {
				want[e] = true
			}
			continue
		}
		want[a] = true
	}

	start := time.Now()
	suite, err := experiments.NewSuite()
	if err != nil {
		return fail(err)
	}
	suite.Opt = metrics.Options{Requests: *requests, Instances: *instances, Seed: *seed}
	phases.mark("compile")

	if want["models"] {
		fmt.Println("Benchmark models")
		for _, n := range dnn.All() {
			fmt.Println("  " + n.Summary())
		}
		fmt.Println()
	}
	if want["table1"] {
		fmt.Println(experiments.FormatTable1())
	}
	if want["table2"] {
		cells, err := suite.Table2Sensitivity()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatTable2(cells))
		phases.mark("table2")
	}

	needServing := want["fig12"] || want["fig13"] || want["fig14"] || want["fig15"]
	if needServing {
		rows, err := suite.ServingComparison()
		if err != nil {
			return fail(err)
		}
		phases.mark("serving")
		if want["fig12"] {
			fmt.Println(experiments.FormatFig12(rows))
		}
		if want["fig13"] {
			fmt.Println(experiments.FormatFig13(rows))
		}
		if want["fig14"] {
			fmt.Println(experiments.FormatFig14(rows))
		}
		if want["fig15"] {
			fmt.Println(experiments.FormatFig15(rows))
		}
	}
	if want["fig16"] {
		rows, err := suite.Fig16ScaleOut(*rate)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig16(rows))
		phases.mark("fig16")
	}
	if want["fig17"] {
		rows, err := suite.Fig17Isolated()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig17(rows))
		phases.mark("fig17")
	}
	if want["fig18"] {
		rows, err := suite.Fig18Granularity()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFig18(rows))
		phases.mark("fig18")
	}
	if want["fig19"] {
		fmt.Println(experiments.FormatFig19())
	}
	if want["ablation"] {
		for _, sc := range workload.Scenarios() {
			rows, err := suite.SchedulerAblation(sc)
			if err != nil {
				return fail(err)
			}
			fmt.Println(experiments.FormatSchedulerAblation(rows))
		}
		orows, err := experiments.OmniAblation()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatOmniAblation(orows))
		grows, err := suite.ExtendedGranularity()
		if err != nil {
			return fail(err)
		}
		fmt.Println("Extended granularity sweep (8/16/32/64):")
		fmt.Println(experiments.FormatFig18(grows))
		prows, err := suite.PenaltySensitivity(workload.ScenarioC(), workload.QoSMedium)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatPenaltySensitivity(workload.ScenarioC(), workload.QoSMedium, prows))
		if *elastic {
			erows, err := suite.ElasticAblation(workload.ScenarioB(), workload.QoSHard, nil)
			if err != nil {
				return fail(err)
			}
			fmt.Println(experiments.FormatElasticAblation(erows))
		}
		phases.mark("ablation")
	}
	if want["trace"] {
		if err := runTrace(suite, *scenario, *qosName, *rate, *requests, *seed, *traceOut, *metricsOut); err != nil {
			return fail(err)
		}
		phases.mark("trace")
	}
	if want["chaos"] {
		if err := runChaos(suite, *scenario, *qosName, *faultsFile, *faultRates, *shedName, *chaosOut, *requests, *instances, *seed); err != nil {
			return fail(err)
		}
		phases.mark("chaos")
	}
	if want["cluster"] {
		if err := runCluster(suite, *scenario, *qosName, *chipsSpec, *policySpec,
			*batchWindow, *maxBatch, *clusterOut, *requests, *instances, *seed, *elastic); err != nil {
			return fail(err)
		}
		phases.mark("cluster")
	}
	if want["attrib"] {
		if err := runAttrib(suite, *scenario, *rate, *batchWindow, *maxBatch,
			*attribOut, *requests, *seed); err != nil {
			return fail(err)
		}
		phases.mark("attrib")
	}
	if want["autoscale"] {
		if err := runAutoscale(suite, *traceFile, *staticsSpec, *ceiling, *autoscaleOut, *elastic); err != nil {
			return fail(err)
		}
		phases.mark("autoscale")
	}
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
	return 0
}

// runTrace executes the instrumented co-location run and writes its
// artifacts. Output filenames default next to the working directory.
func runTrace(suite *experiments.Suite, scenario, qosName string, rate float64, requests int, seed int64, traceOut, metricsOut string) error {
	sc, err := scenarioByName(scenario)
	if err != nil {
		return err
	}
	lvl, err := qosByName(qosName)
	if err != nil {
		return err
	}
	res, err := suite.TracedRun(sc, lvl, rate, requests, seed)
	if err != nil {
		return err
	}
	if traceOut == "" {
		traceOut = "trace.json"
	}
	if err := os.WriteFile(traceOut, res.TraceJSON, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d bytes) — open at https://ui.perfetto.dev\n", traceOut, len(res.TraceJSON))
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, append(res.MetricsJSON, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics: %s (%d bytes)\n", metricsOut, len(res.MetricsJSON))
	}
	fmt.Println()
	fmt.Println(res.MetricsText)
	return nil
}

// parseRates decodes a -fault-rates list ("0,10,40").
func parseRates(spec string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad fault rate %q (want a non-negative number)", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-fault-rates %q names no rates", spec)
	}
	return rates, nil
}

// runChaos executes the fault-injection sweep (or a single replayed
// schedule) and prints the comparison table.
func runChaos(suite *experiments.Suite, scenario, qosName, faultsFile, rateSpec, shedName, chaosOut string, requests, instances int, seed int64) error {
	sc, err := scenarioByName(scenario)
	if err != nil {
		return err
	}
	lvl, err := qosByName(qosName)
	if err != nil {
		return err
	}
	o := experiments.DefaultChaosOptions()
	o.Scenario, o.Level = sc, lvl
	o.Opt = metrics.Options{Requests: requests, Instances: instances, Seed: seed}
	if o.Shed, err = sim.ParseShedPolicy(shedName); err != nil {
		return err
	}
	if rateSpec != "" {
		if o.Rates, err = parseRates(rateSpec); err != nil {
			return err
		}
	}
	if faultsFile != "" {
		data, err := os.ReadFile(faultsFile)
		if err != nil {
			return err
		}
		if o.Schedule, err = fault.ParseJSON(data); err != nil {
			return fmt.Errorf("%s: %w", faultsFile, err)
		}
	}
	rows, err := suite.ChaosSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatChaos(o, rows))
	if chaosOut != "" {
		j, err := experiments.ChaosJSON(o, rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(chaosOut, j, 0o644); err != nil {
			return err
		}
		fmt.Printf("chaos: %s (%d bytes)\n", chaosOut, len(j))
	}
	return nil
}

// parseChips decodes a -chips list ("1,2,4").
func parseChips(spec string) ([]int, error) {
	var chips []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad cluster size %q (want a positive integer)", part)
		}
		chips = append(chips, n)
	}
	if len(chips) == 0 {
		return nil, fmt.Errorf("-chips %q names no cluster sizes", spec)
	}
	return chips, nil
}

// parsePolicies decodes a -policy list; "all" selects every built-in.
func parsePolicies(spec string) ([]string, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return cluster.Policies(), nil
	}
	var pols []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b, err := cluster.NewBalancer(part)
		if err != nil {
			return nil, err
		}
		pols = append(pols, b.Name())
	}
	if len(pols) == 0 {
		return nil, fmt.Errorf("-policy %q names no policies", spec)
	}
	return pols, nil
}

// runCluster executes the multi-chip serving sweep and prints the
// scale-out table.
func runCluster(suite *experiments.Suite, scenario, qosName, chipsSpec, policySpec string,
	batchWindow float64, maxBatch int, clusterOut string, requests, instances int, seed int64, elastic bool) error {
	sc, err := scenarioByName(scenario)
	if err != nil {
		return err
	}
	lvl, err := qosByName(qosName)
	if err != nil {
		return err
	}
	o := experiments.DefaultClusterOptions()
	o.Scenario, o.Level = sc, lvl
	o.Opt = metrics.Options{Requests: requests, Instances: instances, Seed: seed}
	o.BatchWindow, o.MaxBatch = batchWindow, maxBatch
	o.Elastic = elastic
	if chipsSpec != "" {
		if o.Chips, err = parseChips(chipsSpec); err != nil {
			return err
		}
	}
	if o.Policies, err = parsePolicies(policySpec); err != nil {
		return err
	}
	rows, err := suite.ClusterSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatCluster(o, rows))
	if clusterOut != "" {
		j, err := experiments.ClusterJSON(o, rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(clusterOut, j, 0o644); err != nil {
			return err
		}
		fmt.Printf("cluster: %s (%d bytes)\n", clusterOut, len(j))
	}
	return nil
}

// runAttrib executes the SLA attribution run and prints the root-cause
// breakdown plus utilization tables.
func runAttrib(suite *experiments.Suite, scenario string, rate, batchWindow float64,
	maxBatch int, attribOut string, requests int, seed int64) error {
	sc, err := scenarioByName(scenario)
	if err != nil {
		return err
	}
	o := experiments.DefaultAttribOptions()
	o.Scenario = sc
	o.Opt.Requests, o.Opt.Seed = requests, seed
	if rate > 0 {
		o.QPS = rate
	}
	if batchWindow > 0 {
		o.BatchWindow, o.MaxBatch = batchWindow, maxBatch
	}
	rows, err := suite.AttribRun(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAttrib(o, rows))
	if attribOut != "" {
		j, err := experiments.AttribJSON(o, rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(attribOut, j, 0o644); err != nil {
			return err
		}
		fmt.Printf("attrib: %s (%d bytes)\n", attribOut, len(j))
	}
	return nil
}

// runAutoscale replays the planet-scale trace against static fleets and
// the autoscaled one, printing the SLA-versus-chip-hours table.
func runAutoscale(suite *experiments.Suite, traceFile, staticsSpec string,
	ceiling int, autoscaleOut string, elastic bool) error {
	o := experiments.DefaultAutoscaleOptions()
	o.Elastic = elastic
	if traceFile != "" {
		data, err := os.ReadFile(traceFile)
		if err != nil {
			return err
		}
		if o.Trace, err = trace.ParseJSON(data); err != nil {
			return err
		}
	}
	if staticsSpec != "" {
		var err error
		if o.Statics, err = parseChips(staticsSpec); err != nil {
			return err
		}
	}
	if ceiling > 0 {
		o.Chips = ceiling
	}
	rows, err := suite.AutoscaleSweep(o)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAutoscale(o, rows))
	if autoscaleOut != "" {
		j, err := experiments.AutoscaleJSON(o, rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(autoscaleOut, j, 0o644); err != nil {
			return err
		}
		fmt.Printf("autoscale: %s (%d bytes)\n", autoscaleOut, len(j))
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "planaria:", err)
	return 1
}
