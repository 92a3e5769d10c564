package sim_test

// Referee for the early SLA verdict: Node.MeetsSLA must answer exactly
// what a full Run reports, over the paper's scenarios, QoS levels and
// policies, with and without faults and admission shedding.

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/experiments"
	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// verdictRequests is the instance size the referee measures cell
// throughput at: large enough for overload to build, small enough to
// search many cells.
const verdictRequests = 60

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error

	thrMu sync.Mutex
	thr   = map[[3]int]float64{}
)

func verdictSuite(t testing.TB) *experiments.Suite {
	t.Helper()
	suiteOnce.Do(func() { suite, suiteErr = experiments.NewSuite() })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func systemOf(s *experiments.Suite, i int) metrics.System {
	return []metrics.System{s.Planaria, s.PREMA, s.Elastic}[i]
}

// measuredQPS is a cell's throughput at the referee's instance size,
// cached per (scenario, level, system).
func measuredQPS(t testing.TB, s *experiments.Suite, sc, lvl, sys int) float64 {
	t.Helper()
	key := [3]int{sc, lvl, sys}
	thrMu.Lock()
	q, ok := thr[key]
	thrMu.Unlock()
	if ok {
		return q
	}
	q, err := metrics.Throughput(systemOf(s, sys), workload.Scenarios()[sc], workload.Levels[lvl],
		metrics.Options{Requests: verdictRequests, Instances: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 {
		q = 0.5
	}
	thrMu.Lock()
	thr[key] = q
	thrMu.Unlock()
	return q
}

// verdictCase is one referee input: a request stream and a recipe for a
// fresh node (policies and injectors are stateful, so each side of the
// comparison gets its own).
type verdictCase struct {
	reqs []workload.Request
	node func() *sim.Node
}

// buildCase draws an n-request stream of one cell at factor × its
// measured throughput. Past ~100 requests per domain the SLA tolerates
// misses, so the budget arithmetic, not just the first miss, decides.
func buildCase(t testing.TB, s *experiments.Suite, sc, lvl, sysIdx, n int, factor float64, faults, shed bool, seed int64) verdictCase {
	t.Helper()
	sys := systemOf(s, sysIdx)
	qps := factor * measuredQPS(t, s, sc, lvl, sysIdx)
	reqs, err := workload.Generate(workload.Scenarios()[sc], workload.Levels[lvl], qps, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var schedule *fault.Schedule
	if faults {
		horizon := reqs[len(reqs)-1].Arrival * 2
		schedule, err = fault.Generate(16, 4, 30/horizon, horizon, horizon/10, seed^0x5eed)
		if err != nil {
			t.Fatal(err)
		}
	}
	mode := sim.FaultFission
	if sysIdx == 1 {
		mode = sim.FaultDerate
	}
	return verdictCase{reqs: reqs, node: func() *sim.Node {
		n := &sim.Node{Cfg: sys.Cfg, Policy: sys.NewPolicy(), Programs: sys.Programs, Params: sys.Params}
		if schedule != nil {
			in, err := fault.NewInjector(schedule)
			if err != nil {
				t.Fatal(err)
			}
			n.Faults, n.FaultMode, n.MaxAttempts = in, mode, 2
		}
		if shed {
			n.Shed = sim.ShedPriority
		}
		return n
	}}
}

// checkVerdict asserts MeetsSLA == Run().MeetsSLA and returns the verdict.
// When Run fails, MeetsSLA must fail the same way or have stopped first
// with false (the documented caveat).
func checkVerdict(t testing.TB, c verdictCase) bool {
	t.Helper()
	out, runErr := c.node().Run(c.reqs)
	got, err := c.node().MeetsSLA(c.reqs)
	if runErr != nil {
		if err == nil && got {
			t.Fatalf("MeetsSLA = true where Run fails: %v", runErr)
		}
		return false
	}
	if err != nil {
		t.Fatalf("MeetsSLA failed where Run succeeds: %v", err)
	}
	if got != out.MeetsSLA {
		t.Fatalf("MeetsSLA = %v, Run reports %v (shed %d, rejected %d, killed %d)",
			got, out.MeetsSLA, out.Shed, out.Rejected, out.Killed)
	}
	return got
}

// TestMeetsSLAMatchesRun sweeps every scenario, QoS level and policy at
// seeded rates from 0.25× to 4× the cell's measured throughput, each
// with and without a fault schedule and priority shedding, on short
// streams and on long ones whose SLA budgets allow misses.
func TestMeetsSLAMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the nine-model suite")
	}
	s := verdictSuite(t)
	rng := rand.New(rand.NewSource(13))
	meets, fails := 0, 0
	for sc := 0; sc < 3; sc++ {
		for lvl := 0; lvl < 3; lvl++ {
			for sys := 0; sys < 3; sys++ {
				for _, faults := range []bool{false, true} {
					for _, shed := range []bool{false, true} {
						// Short streams span 0.25×..4×; long ones, whose
						// budgets allow misses, stay near the SLA edge
						// (0.5×..1.4×), where the budget decides. The miss
						// budget is policy-independent, and Elastic's
						// re-fission wakeups make its long streams slow, so
						// they run Spatial and PREMA.
						factor := math.Pow(2, -2+4*rng.Float64())
						n := 60
						if rng.Intn(2) == 1 && sys != 2 {
							n, factor = 400, 0.5+0.9*rng.Float64()
						}
						c := buildCase(t, s, sc, lvl, sys, n, factor, faults, shed, rng.Int63())
						if checkVerdict(t, c) {
							meets++
						} else {
							fails++
						}
					}
				}
			}
		}
	}
	if meets == 0 || fails == 0 {
		t.Fatalf("sweep one-sided: %d meet, %d fail", meets, fails)
	}
	t.Logf("%d cells meet the SLA, %d fail", meets, fails)
}

// FuzzMeetsSLA explores the same input space as TestMeetsSLAMatchesRun.
func FuzzMeetsSLA(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(1), uint8(200), uint8(10), false, false, int64(1))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(20), uint8(180), true, true, int64(7))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(128), uint8(255), true, false, int64(3))
	f.Fuzz(func(t *testing.T, sc, lvl, sys, rate, size uint8, faults, shed bool, seed int64) {
		s := verdictSuite(t)
		factor := math.Pow(2, -2+4*float64(rate)/255) // 0.25×..4×
		n := 20 + int(size)                           // 20..275 requests
		c := buildCase(t, s, int(sc%3), int(lvl%3), int(sys%3), n, factor, faults, shed, seed)
		checkVerdict(t, c)
	})
}

// countingPolicy counts scheduling decisions of the spatial scheduler.
type countingPolicy struct {
	*sched.Spatial
	calls int
}

func (c *countingPolicy) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	c.calls++
	c.Spatial.AllocateInto(now, tasks, total, dst)
}

// TestMeetsSLAStopsEarly: on an overloaded stream the verdict is decided
// long before the last request retires, so the policy is consulted
// strictly fewer times than by the full run.
func TestMeetsSLAStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the nine-model suite")
	}
	s := verdictSuite(t)
	qps := 4 * measuredQPS(t, s, 2, 2, 0)
	reqs, err := workload.Generate(workload.ScenarioC(), workload.QoSHard, qps, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(verdict bool) (bool, int) {
		pol := &countingPolicy{Spatial: sched.NewSpatial(s.Planaria.Cfg)}
		n := &sim.Node{Cfg: s.Planaria.Cfg, Policy: pol, Programs: s.Planaria.Programs, Params: s.Planaria.Params}
		if verdict {
			ok, err := n.MeetsSLA(reqs)
			if err != nil {
				t.Fatal(err)
			}
			return ok, pol.calls
		}
		out, err := n.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out.MeetsSLA, pol.calls
	}
	fullOK, fullCalls := run(false)
	gotOK, gotCalls := run(true)
	if fullOK || gotOK {
		t.Fatalf("overloaded stream meets the SLA (run %v, verdict %v)", fullOK, gotOK)
	}
	if gotCalls >= fullCalls {
		t.Fatalf("verdict made %d policy calls, full run %d: no early stop", gotCalls, fullCalls)
	}
	t.Logf("policy calls: verdict %d, full run %d", gotCalls, fullCalls)
}

// TestMeetsSLARejectsSinks: a verdict run stops early, so any recording
// sink would be left truncated; each one is refused by name.
func TestMeetsSLARejectsSinks(t *testing.T) {
	node, iso := engineNode(t, sched.NewSpatial(arch.Planaria()))
	node.Trace = nil
	reqs := colocated(iso)
	sinks := map[string]func(n *sim.Node){
		"Trace":  func(n *sim.Node) { n.Trace = &sim.Trace{} },
		"Obs":    func(n *sim.Node) { n.Obs = obs.New() },
		"Attrib": func(n *sim.Node) { n.Attrib = obs.NewLedger(len(reqs)) },
		"Occ":    func(n *sim.Node) { n.Occ = obs.NewOccupancy(16) },
	}
	for name, attach := range sinks {
		n := *node
		attach(&n)
		if _, err := n.MeetsSLA(reqs); !errors.Is(err, sim.ErrVerdictSink) {
			t.Errorf("%s attached: err = %v, want ErrVerdictSink", name, err)
		}
	}
	if ok, err := node.MeetsSLA(reqs); err != nil || !ok {
		t.Fatalf("sink-free node: MeetsSLA = %v, %v", ok, err)
	}
}
