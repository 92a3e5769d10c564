package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"time"

	"planaria/internal/cluster"
	"planaria/internal/experiments"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
	"planaria/internal/workload/trace"
)

// A benchCase is one workload run inside one sample process. The sample
// calls setup once (timed as setup_s), prepare once (not timed), then
// run once (timed) and check once (not timed).
type benchCase interface {
	// setup compiles the programs. A non-nil rec wraps every policy the
	// engine receives with a timing wrapper.
	setup(rec *recorder) error
	// prepare builds the inputs the benchmark generates outside the
	// timed region.
	prepare()
	// run executes the workload once. A non-nil tr receives its spans.
	run(tr *tracer) error
	// check verifies the run's outputs, returns their digest and the
	// request count ns_per_req divides by, and drops the outputs.
	check() (digest string, reqs int, err error)
}

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name        string
	defaultSeed int64
	newCase     func(seed int64) benchCase
}

var workloads = []workloadDef{
	{name: "paper-figs", defaultSeed: 1, newCase: func(s int64) benchCase { return &figsCase{seed: s} }},
	{name: "planet-diurnal", defaultSeed: 1, newCase: func(s int64) benchCase { return &planetCase{seed: s} }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// variants is the number of input variants one measurement cycles
// through. A workload run's cost depends on its seed, so a measurement
// at --seed s runs its sample processes in turn on the variant seeds
// s, s+variantStride, ... and averages the variants' medians: the seed
// moves the result much less than any single variant's cost does.
const variants = 8

// variantStride separates the variant seeds, so that the variants of
// nearby --seed values do not share inputs.
const variantStride = 1_000_003

// variantSeed is the seed of variant v of a measurement at seed.
func variantSeed(seed int64, v int) int64 { return seed + int64(v)*variantStride }

// tracer accumulates named wall-time spans of a traced run. A nil
// tracer records nothing.
type tracer struct {
	spans map[string]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]time.Duration{}} }

func (t *tracer) span(name string, start time.Time) {
	if t != nil {
		t.spans[name] += time.Since(start)
	}
}

// ---------------------------------------------------------------- paper-figs

// figRate is the fixed Fig 16 arrival rate, the CLI default.
const figRate = 100

// figsCase regenerates Table 2 and Fig 12–18 at the CLI defaults
// (400 requests × 3 instances) at its seed: one `planaria` figure sweep.
// Variant 0 at seed 1 is the CLI's sweep.
type figsCase struct {
	seed  int64
	suite *experiments.Suite
	rows  []any
}

func (c *figsCase) setup(rec *recorder) error {
	s, err := experiments.NewSuite()
	if err != nil {
		return err
	}
	s.Opt.Seed = c.seed
	if rec != nil {
		s.Planaria = rec.instrument(s.Planaria)
		s.PREMA = rec.instrument(s.PREMA)
		s.Elastic = rec.instrument(s.Elastic)
	}
	c.suite = s
	return nil
}

func (c *figsCase) prepare() {}

func (c *figsCase) run(tr *tracer) error {
	s := c.suite
	start := time.Now()
	t2, err := s.Table2Sensitivity()
	tr.span("experiments.table2", start)
	if err != nil {
		return err
	}
	start = time.Now()
	serving, err := s.ServingComparison()
	tr.span("experiments.serving", start)
	if err != nil {
		return err
	}
	start = time.Now()
	f16, err := s.Fig16ScaleOut(figRate)
	tr.span("experiments.fig16", start)
	if err != nil {
		return err
	}
	start = time.Now()
	f17, err := s.Fig17Isolated()
	tr.span("experiments.fig17", start)
	if err != nil {
		return err
	}
	start = time.Now()
	f18, err := s.Fig18Granularity()
	tr.span("experiments.fig18", start)
	if err != nil {
		return err
	}
	c.rows = []any{t2, serving, f16, f17, f18}
	return nil
}

// check hashes every figure row. %v prints floats in their shortest
// exact form, so the digest pins every bit. The engine's arrivals are
// not visible from outside the figure methods, so ns_per_req on
// paper-figs divides by the suite's nominal stream, requests ×
// instances (1,200 at the CLI defaults): it moves exactly with run_s.
func (c *figsCase) check() (string, int, error) {
	h := sha256.New()
	for _, r := range c.rows {
		fmt.Fprintf(h, "%+v\n", r)
	}
	c.rows = nil
	return hex.EncodeToString(h.Sum(nil)), c.suite.Opt.Requests * c.suite.Opt.Instances, nil
}

// ---------------------------------------------------------------- planet-diurnal

// planetSpeedup compresses the planet-day trace's time axis: the
// workload replays the day's diurnal rate curve in 24/planetSpeedup
// hours at the day's rates. One run then takes about a second, so a
// measurement holds many of them.
const planetSpeedup = 4

// planetCase replays the planet-day trace without its two flash crowds,
// time-compressed by planetSpeedup, into the default autoscaled fleet
// under the elastic scheduler with priority shedding and attribution on,
// then folds the attribution report. With the crowds, the run's cost
// swings two- to four-fold with the seed (README.md), too much for a
// gated benchmark.
type planetCase struct {
	seed   int64
	sys    metrics.System
	base   metrics.System
	spec   *trace.Spec
	reqs   []workload.Request
	out    *cluster.Outcome
	report []byte
}

func (c *planetCase) setup(rec *recorder) error {
	s, err := experiments.NewSuite()
	if err != nil {
		return err
	}
	c.base = s.Elastic
	c.sys = c.base
	if rec != nil {
		c.sys = rec.instrument(c.base)
	}
	return nil
}

// planetSpec is the workload's trace spec at seed.
func planetSpec(seed int64) *trace.Spec {
	spec := experiments.DefaultAutoscaleTrace()
	spec.Name = "planet-diurnal"
	spec.Crowds = nil
	spec.Seed = seed
	spec.HorizonS /= planetSpeedup
	for i := range spec.Diurnal {
		spec.Diurnal[i].AtS /= planetSpeedup
	}
	return spec
}

func (c *planetCase) prepare() { c.spec = planetSpec(c.seed) }

func (c *planetCase) config() cluster.Config {
	o := experiments.DefaultAutoscaleOptions()
	scale := o.Scale
	return cluster.Config{
		System: c.sys, Chips: o.Chips, Policy: o.Policy,
		Shed: sim.ShedPriority, Scale: &scale, Attrib: true,
	}
}

func (c *planetCase) run(tr *tracer) error {
	start := time.Now()
	reqs, err := c.spec.Generate()
	tr.span("trace.gen", start)
	if err != nil {
		return err
	}
	c.reqs = reqs
	start = time.Now()
	out, err := cluster.Run(c.config(), reqs)
	tr.span("cluster.run", start)
	if err != nil {
		return err
	}
	c.out = out
	start = time.Now()
	rep, err := out.AttribReport(reqs)
	if err == nil {
		c.report, err = rep.JSON()
	}
	tr.span("obs.attrib_report", start)
	return err
}

func (c *planetCase) check() (string, int, error) {
	out, n := c.out, len(c.reqs)
	c.out, c.reqs = nil, nil
	if err := conserved(out, n); err != nil {
		return "", 0, err
	}
	if out.Fleet == nil {
		return "", 0, fmt.Errorf("autoscaled run has no fleet log")
	}
	h := sha256.New()
	hashCluster(h, out)
	for _, ev := range out.Fleet.Events() {
		writeFloats(h, ev.Time)
		writeInts(h, ev.Chip, int(ev.Kind))
	}
	h.Write(c.report)
	c.report = nil
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// ---------------------------------------------------------------- referees

// conserved checks the five-way terminal partition of a cluster run.
func conserved(out *cluster.Outcome, arrivals int) error {
	if out == nil {
		return fmt.Errorf("no cluster outcome")
	}
	sum := out.Completed + out.ShedFront + out.ShedChips + out.Rejected + out.ShedDrain
	if sum != arrivals || len(out.Finishes) != arrivals {
		return fmt.Errorf("conservation broken: completed %d + shed front %d + shed chips %d + rejected %d + shed drain %d = %d, %d finishes, %d arrivals",
			out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, sum, len(out.Finishes), arrivals)
	}
	return nil
}

// hashCluster writes a cluster outcome's simulated results: every finish
// time bit for bit, the terminal tallies and the per-chip shares.
func hashCluster(h hash.Hash, out *cluster.Outcome) {
	writeFloats(h, out.Finishes...)
	writeInts(h, out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain,
		out.Migrated, out.Killed, out.Retries, out.FaultEvents, out.Batches, out.BatchedReqs)
	writeInts(h, out.Dispatched...)
	writeFloats(h, out.MeanBatchSize, out.EnergyJ, out.Makespan, out.DeadlineFrac)
	fmt.Fprintf(h, "sla=%v chips=%d\n", out.MeetsSLA, len(out.PerChip))
	for _, cr := range out.PerChip {
		if cr == nil || cr.Outcome == nil {
			writeInts(h, -1)
			continue
		}
		o := cr.Outcome
		writeInts(h, len(cr.Requests), o.Preemptions, o.Refissions, o.Shed, o.Rejected)
		writeFloats(h, o.EnergyJ, o.Makespan, o.BusyTime, o.Fairness)
	}
}

func writeFloats(w io.Writer, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		w.Write(b[:])
	}
}

func writeInts(w io.Writer, is ...int) {
	var b [8]byte
	for _, i := range is {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(i)))
		w.Write(b[:])
	}
}

// replayChips runs every chip's dispatch stream through a standalone
// sim.Node with the cluster's chip settings and checks that it
// reproduces the chip's finish times bit for bit. It returns the replay
// wall time and the number of tasks replayed.
func replayChips(sys metrics.System, cfg cluster.Config, out *cluster.Outcome) (time.Duration, int, error) {
	var total time.Duration
	tasks := 0
	for i, cr := range out.PerChip {
		if cr == nil || cr.Outcome == nil {
			continue
		}
		node := &sim.Node{
			Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params,
			FaultMode: cfg.FaultMode, Shed: cfg.Shed,
		}
		start := time.Now()
		o, err := node.Run(cr.Requests)
		total += time.Since(start)
		if err != nil {
			return total, tasks, fmt.Errorf("chip %d replay: %w", i, err)
		}
		tasks += len(cr.Requests)
		want := cr.Outcome.Finishes
		if len(o.Finishes) != len(want) {
			return total, tasks, fmt.Errorf("chip %d replay: %d finishes, cluster had %d", i, len(o.Finishes), len(want))
		}
		for j := range want {
			if math.Float64bits(o.Finishes[j]) != math.Float64bits(want[j]) {
				return total, tasks, fmt.Errorf("chip %d replay: finish %d is %v, cluster had %v", i, j, o.Finishes[j], want[j])
			}
		}
	}
	return total, tasks, nil
}
