// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points on two fixed workloads, times those
// calls from outside, checks every simulated output against a committed
// digest, and prints one JSON result as its last line. README.md in this
// directory says why each workload exists and what each metric means.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-figs --seed 7 --seconds 60 --trace 0
//
// --trace 0 measures the end-to-end metrics over repeated sample
// processes; --trace 1 makes traced runs and prints per-layer metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hardLimit bounds one benchmark invocation; every sample process is
// killed when it is reached.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-figs or planet-diurnal")
	seed := fs.Int64("seed", -1, "input seed (default: the workload's committed-digest seed)")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 makes traced runs and reports per-layer metrics")
	child := fs.String("child", "", "internal: run one sample process in this mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seed < 0 {
		*seed = w.defaultSeed
	}
	if *child != "" {
		return runChild(w, *seed, *child)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var res *result
	if *traced == 1 {
		res = measureTraced(w, *seed)
	} else {
		var err error
		if res, err = measure(w, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printLine("provenance", provenance(w, *seed, res.gomaxprocs))
	printLine("digest", map[string]any{"workload": w.name, "seed": *seed, "sha256": res.digests})
	printLine("", res.summary)
	return 0
}

func printLine(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps of numbers and strings are printed
	}
	if prefix != "" {
		fmt.Printf("%s %s\n", prefix, b)
		return
	}
	fmt.Printf("%s\n", b)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary summary
	// digests holds the output digest of each variant that ran.
	digests []string
	// gomaxprocs is the sample processes' GOMAXPROCS.
	gomaxprocs int
}

// sample is what one sample process reports about its workload run.
type sample struct {
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Requests   int                `json:"requests"`
	Digest     string             `json:"digest"`
	Failed     int                `json:"failed"`
	Attempted  int                `json:"attempted"`
	Errors     []string           `json:"errors,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	// SpannedS is the time the traced run's top-level layer spans cover.
	SpannedS   float64 `json:"spanned_s,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// RunEndNs is CLOCK_MONOTONIC at the end of the run.
	RunEndNs int64 `json:"run_end_ns"`

	// The parent fills in the rest: CLOCK_MONOTONIC just before it
	// started the process, and the process's peak RSS.
	StartNs   int64   `json:"-"`
	PeakRSSMB float64 `json:"-"`
}

// spawn runs one sample process of w in the given mode and returns its
// report. gomaxprocs > 0 pins the child's GOMAXPROCS.
func spawn(ctx context.Context, w workloadDef, seed int64, mode string, gomaxprocs int) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--child", mode)
	cmd.Env = os.Environ()
	if gomaxprocs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := clockNs(clockMonotonic)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sample (%s): %w", w.name, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return nil, fmt.Errorf("%s sample (%s): bad report: %w", w.name, mode, err)
	}
	s.StartNs = start
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &s, nil
}

// committed returns the committed digest of variant v of w at seed, if
// any.
func committed(w workloadDef, seed int64, v int) (string, bool) {
	d, ok := committedDigests()[w.name]
	if !ok || d.Seed != seed || v >= len(d.SHA256) {
		return "", false
	}
	return d.SHA256[v], true
}

//go:embed digests.json
var digestsJSON []byte

// digestEntry holds a workload's output digests at one seed, one per
// variant.
type digestEntry struct {
	Seed   int64    `json:"seed"`
	SHA256 []string `json:"sha256"`
}

func committedDigests() map[string]digestEntry {
	m := map[string]digestEntry{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}

// tally accumulates failures across sample processes.
type tally struct {
	attempted, failed int
	digests           [variants]string // the first digest each variant reported
	errs              []string
}

// add folds one sample of variant v of a measurement at seed: its own
// failures, and a digest that disagrees with the committed one or with
// an earlier sample of the variant, which fails every operation of the
// sample that had not failed already.
func (t *tally) add(w workloadDef, seed int64, v int, s *sample) {
	t.attempted += s.Attempted
	t.failed += s.Failed
	t.errs = append(t.errs, s.Errors...)
	if s.Digest == "" {
		return
	}
	want, ok := committed(w, seed, v)
	switch {
	case ok && s.Digest != want:
		t.failed += s.Attempted - s.Failed
		t.errs = append(t.errs, fmt.Sprintf("variant %d: digest %s does not match the committed %s", v, s.Digest, want))
	case t.digests[v] != "" && s.Digest != t.digests[v]:
		t.failed += s.Attempted - s.Failed
		t.errs = append(t.errs, fmt.Sprintf("variant %d: digest %s differs from an earlier sample's %s", v, s.Digest, t.digests[v]))
	}
	if t.digests[v] == "" {
		t.digests[v] = s.Digest
	}
}

// reported returns the digests of the variants that reported one.
func (t *tally) reported() []string {
	var ds []string
	for _, d := range t.digests {
		if d != "" {
			ds = append(ds, d)
		}
	}
	return ds
}

// spawnFailure counts a sample process that did not report.
func (t *tally) spawnFailure(err error) {
	t.attempted++
	t.failed++
	t.errs = append(t.errs, err.Error())
}

func (t *tally) report() {
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", e)
	}
}

// measure runs sample processes one after another, each on the next
// variant in turn, until the budget would be exceeded, and at least one
// per variant. Each end-to-end metric is the mean over the variants of
// the metric's median over the variant's samples, except alloc_mb, which
// averages the samples: a run's allocation clusters at a few levels, set
// by when GC empties the engine's sync.Pool scratch, and a median jumps
// between them. setup_s does not depend on the variant and is the median
// over all samples.
func measure(w workloadDef, seed int64, budget time.Duration) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	var t tally
	var byVariant [variants][]*sample
	start := time.Now()
	var longest time.Duration
	for n := 0; n < variants || time.Since(start)+longest <= budget; n++ {
		v := n % variants
		s0 := time.Now()
		s, err := spawn(ctx, w, variantSeed(seed, v), "sample", 0)
		if d := time.Since(s0); d > longest {
			longest = d
		}
		if err != nil {
			t.spawnFailure(err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		t.add(w, seed, v, s)
		byVariant[v] = append(byVariant[v], s)
	}
	t.report()
	var setup, runS, cpu, alloc, rss, nsPerReq []float64
	for v, ss := range byVariant {
		if len(ss) == 0 {
			return nil, fmt.Errorf("variant %d: no sample process reported", v)
		}
		var r, c, a, m []float64
		reqs := 0
		for _, s := range ss {
			setup = append(setup, s.SetupS)
			r = append(r, s.RunS)
			c = append(c, s.CPUS)
			a = append(a, float64(s.AllocBytes)/1e6)
			m = append(m, s.PeakRSSMB)
			reqs = max(reqs, s.Requests)
		}
		if reqs == 0 {
			return nil, fmt.Errorf("variant %d: no workload run completed", v)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d variant %d: %d samples, run_s %.4f\n", w.name, seed, v, len(r), r)
		runS = append(runS, median(r))
		cpu = append(cpu, median(c))
		alloc = append(alloc, mean(a))
		rss = append(rss, median(m))
		nsPerReq = append(nsPerReq, median(r)*1e9/float64(reqs))
	}
	return &result{digests: t.reported(), gomaxprocs: byVariant[0][0].GOMAXPROCS, summary: summary{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setup), "s"},
			"run_s":       {mean(runS), "s"},
			"cpu_s":       {mean(cpu), "s"},
			"ns_per_req":  {mean(nsPerReq), "ns"},
			"alloc_mb":    {mean(alloc), "MB"},
			"peak_rss_mb": {mean(rss), "MB"},
		},
	}}, nil
}

// tracedRounds is the number of untraced/traced sample pairs a traced
// measurement makes; each layer metric is the median over the rounds.
const tracedRounds = 3

// measureTraced makes tracedRounds pairs of one untraced and one traced
// run of variant 0, so that the counts repeat exactly, all pinned to
// GOMAXPROCS 1, and reports the median of each layer
// metric over the traced runs plus the tracing overhead against the
// untraced ones. Both wall times run from process start to the end of
// the run. A sample process that fails, or a traced run whose layers do
// not explain its wall time, counts as a failed operation; layers no
// traced run reported read 0.
func measureTraced(w workloadDef, seed int64) *result {
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	var t tally
	run := func(mode string) *sample {
		s, err := spawn(ctx, w, seed, mode, 1)
		if err != nil {
			t.spawnFailure(err)
			return nil
		}
		if mode == "traced" {
			if err := s.attribute(); err != nil {
				s.fail(err)
			}
		}
		t.add(w, seed, 0, s) // also fails a digest that differs from an earlier mode's
		return s
	}
	values := map[string][]float64{}
	var refWall []float64
	for i := 0; i < tracedRounds; i++ {
		if ref := run("ref"); ref != nil {
			refWall = append(refWall, ref.wallS())
		}
		if tr := run("traced"); tr != nil {
			for name, v := range tr.Layers {
				values[name] = append(values[name], v)
			}
		}
	}
	layers := map[string]float64{}
	for name, vs := range values {
		layers[name] = median(vs)
	}
	if len(refWall) > 0 && layers["traced.wall_s"] > 0 {
		layers["tracing.overhead_frac"] = layers["traced.wall_s"]/median(refWall) - 1
	}
	t.report()
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{layers[m.name], m.unit}
	}
	return &result{digests: t.reported(), gomaxprocs: 1, summary: summary{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out,
	}}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance records where and on what the result was measured.
func provenance(w workloadDef, seed int64, sampleProcs int) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload": w.name, "seed": seed, "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "sample_gomaxprocs": sampleProcs,
		"go": runtime.Version(), "git_rev": rev,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
