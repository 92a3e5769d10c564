package prema

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/fault"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

func toyProg(t testing.TB, cfg arch.Config) *compiler.Program {
	t.Helper()
	b := dnn.NewBuilder("prema-toy", "classification", 32, 32, 8)
	b.Conv("c1", 32, 3, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.CompileProgram(net, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mkTask builds a queued task whose input position equals its ID.
func mkTask(id, prio int, prog *compiler.Program) *sim.Task {
	return sim.NewTask(id, workload.Request{ID: id, Priority: prio, Deadline: 1}, prog)
}

func TestSingleOwnerAtATime(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	tasks := []*sim.Task{mkTask(0, 3, p), mkTask(1, 7, p), mkTask(2, 11, p)}
	alloc := pol.Allocate(0, tasks, 1)
	owners := 0
	for _, a := range alloc {
		if a > 0 {
			owners++
			if a != 1 {
				t.Fatalf("owner granted %d of 1", a)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("%d owners, want exactly 1", owners)
	}
}

func TestTokensAccrueForWaiters(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	a := mkTask(0, 2, p)
	b := mkTask(1, 10, p)
	tasks := []*sim.Task{a, b}

	first := pol.Allocate(0, tasks, 1)
	var runner, waiter *sim.Task
	if first[a.ID] == 1 {
		runner, waiter = a, b
	} else {
		runner, waiter = b, a
	}
	runner.Alloc = 1
	// After the waiter has waited, its token (priority × wait) overtakes
	// the runner's reset token and it preempts.
	later := pol.Allocate(0.05, tasks, 1)
	if later[waiter.ID] != 1 {
		t.Fatalf("waiter (prio %d) not scheduled after waiting: %v", waiter.Req.Priority, later)
	}
}

func TestHigherPriorityWinsInitially(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	lo := mkTask(0, 1, p)
	hi := mkTask(1, 11, p)
	alloc := pol.Allocate(0, []*sim.Task{lo, hi}, 1)
	if alloc[hi.ID] != 1 {
		t.Fatalf("high-priority task not scheduled first: %v", alloc)
	}
}

// TestAbsentTaskRejoinsWithFreshToken: a task missing from one decision
// has left the queue, so when it rejoins its token restarts at its
// priority; a task present in every decision keeps what it accrued.
func TestAbsentTaskRejoinsWithFreshToken(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	for _, absent := range []bool{false, true} {
		pol := NewToken(cfg)
		a := mkTask(0, 1, p)  // waits, accruing 1 token per ms
		b := mkTask(1, 11, p) // dispatched first, then runs
		if got := pol.Allocate(0, []*sim.Task{a, b}, 1); got[b.ID] != 1 {
			t.Fatalf("absent=%v: first decision %v, want task %d", absent, got, b.ID)
		}
		b.Alloc = 1
		if absent {
			// a sits out one decision (a retry backoff, say).
			pol.Allocate(0.020, []*sim.Task{b}, 1)
		}
		// Kept, a's token is 1 + 21 ms of accrual = 22 and it alone is a
		// candidate; reset, it is back to 1 and b (11) wins.
		want := a
		if absent {
			want = b
		}
		if got := pol.Allocate(0.021, []*sim.Task{a, b}, 1); got[want.ID] != 1 {
			t.Fatalf("absent=%v: decision %v, want task %d", absent, got, want.ID)
		}
	}
}

// TestRecycledSlotStartsFresh: a new task whose position shares a slot
// of the token table with a task from the previous decision (positions
// 0 and 8 in the initial 8-entry table) starts at its own priority
// rather than inheriting the departed task's token.
func TestRecycledSlotStartsFresh(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	q := mkTask(0, 1, p)
	r := mkTask(1, 11, p)
	if got := pol.Allocate(0, []*sim.Task{q, r}, 1); got[r.ID] != 1 {
		t.Fatalf("first decision %v, want task %d", got, r.ID)
	}
	r.Alloc = 1
	// q accrues to 9.5, just short of candidacy (0.9 × 11).
	if got := pol.Allocate(0.0085, []*sim.Task{q, r}, 1); got[r.ID] != 1 {
		t.Fatalf("second decision %v, want task %d", got, r.ID)
	}
	// q leaves and n arrives. Inheriting q's state, n would hold
	// 9.5 + 3 = 12.5 and win alone; fresh, it holds 1 and r wins.
	n := mkTask(8, 1, p)
	if got := pol.Allocate(0.0115, []*sim.Task{n, r}, 1); got[r.ID] != 1 {
		t.Fatalf("third decision %v, want task %d: the newcomer inherited a token", got, r.ID)
	}
}

func TestQuantumPositive(t *testing.T) {
	if NewToken(arch.Monolithic()).Quantum() <= 0 {
		t.Fatal("PREMA needs a positive scheduling quantum for token re-evaluation")
	}
}

// TestAllocateIntoSteadyStateZeroAllocs pins the map-free decision: once
// the token slice covers the queue's positions, a decision allocates
// nothing.
func TestAllocateIntoSteadyStateZeroAllocs(t *testing.T) {
	cfg := arch.Monolithic()
	p := toyProg(t, cfg)
	pol := NewToken(cfg)
	tasks := make([]*sim.Task, 8)
	for i := range tasks {
		tasks[i] = mkTask(i, 1+i%11, p)
	}
	dst := make([]int, len(tasks))
	now := 0.0
	pol.AllocateInto(now, tasks, 1, dst)
	allocs := testing.AllocsPerRun(200, func() {
		now += 1e-4
		clear(dst)
		pol.AllocateInto(now, tasks, 1, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AllocateInto allocates %.1f times per call, want 0", allocs)
	}
}

// refToken is the map-based PREMA decision the slice state replaced,
// kept verbatim as the referee: tokens and last-accrual instants keyed
// by task ID, and every ID absent from the current decision deleted in
// sorted order.
type refToken struct {
	CandidateFraction float64
	SchedulingQuantum float64
	tokens, last      map[int]float64
}

func newRefToken() *refToken {
	return &refToken{
		CandidateFraction: 0.9,
		SchedulingQuantum: 500e-6,
		tokens:            make(map[int]float64),
		last:              make(map[int]float64),
	}
}

func (p *refToken) Name() string     { return "PREMA-ref" }
func (p *refToken) Quantum() float64 { return p.SchedulingQuantum }

func (p *refToken) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	if len(tasks) == 0 {
		return nil
	}
	return map[int]int{tasks[p.decide(now, tasks, total)].ID: total}
}

func (p *refToken) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	dst[p.decide(now, tasks, total)] = total
}

func (p *refToken) decide(now float64, tasks []*sim.Task, total int) int {
	live := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		live[t.ID] = true
		lastT, seen := p.last[t.ID]
		if !seen {
			p.tokens[t.ID] = float64(t.Req.Priority)
			p.last[t.ID] = now
			continue
		}
		if t.Alloc == 0 {
			p.tokens[t.ID] += float64(t.Req.Priority) * (now - lastT) * 1e3
		}
		p.last[t.ID] = now
	}
	var stale []int
	for id := range p.tokens {
		stale = append(stale, id)
	}
	sort.Ints(stale)
	for _, id := range stale {
		if !live[id] {
			delete(p.tokens, id)
			delete(p.last, id)
		}
	}
	maxTok := 0.0
	for _, t := range tasks {
		if p.tokens[t.ID] > maxTok {
			maxTok = p.tokens[t.ID]
		}
	}
	best := -1
	bestRem := int64(0)
	for i, t := range tasks {
		if p.tokens[t.ID] < p.CandidateFraction*maxTok {
			continue
		}
		rem := t.RemainingCycles(total)
		if best < 0 || rem < bestRem || (rem == bestRem && t.ID < tasks[best].ID) {
			best = i
			bestRem = rem
		}
	}
	if best < 0 {
		best = 0
	}
	p.tokens[tasks[best].ID] = float64(tasks[best].Req.Priority)
	return best
}

// lockstep asks both deciders on every call and records the first
// disagreement; the engine follows the slice-state decision.
type lockstep struct {
	got       *Token
	want      *refToken
	calls     int
	diffCall  int
	diffTasks int
}

func (l *lockstep) Name() string     { return "PREMA-lockstep" }
func (l *lockstep) Quantum() float64 { return l.got.Quantum() }

func (l *lockstep) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	m := make(map[int]int, 1)
	dst := make([]int, len(tasks))
	l.AllocateInto(now, tasks, total, dst)
	for i, a := range dst {
		if a > 0 {
			m[tasks[i].ID] = a
		}
	}
	return m
}

func (l *lockstep) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	l.calls++
	g := l.got.decide(now, tasks, total)
	if w := l.want.decide(now, tasks, total); w != g && l.diffCall == 0 {
		l.diffCall, l.diffTasks = l.calls, len(tasks)
	}
	dst[g] = total
}

// premaStream draws a random PREMA serving instance: Poisson arrivals
// around the chip's capacity, random priorities and deadlines, and one
// of three ID layouts (identity; strictly increasing with gaps, as a
// cluster chip stream; shuffled, which takes the copy-and-sort path), so
// input positions and IDs diverge.
func premaStream(rng *rand.Rand, iso float64) []workload.Request {
	n := 5 + rng.Intn(60)
	rate := (0.3 + 2.5*rng.Float64()) / iso
	reqs := make([]workload.Request, n)
	at := 0.0
	for i := range reqs {
		at += rng.ExpFloat64() / rate
		qos := iso * (1 + 20*rng.Float64())
		reqs[i] = workload.Request{
			ID: i, Model: "prema-toy", Domain: "classification",
			Arrival: at, Priority: 1 + rng.Intn(11), QoS: qos, Deadline: at + qos,
		}
	}
	switch rng.Intn(3) {
	case 1:
		id := 0
		for i := range reqs {
			id += 1 + rng.Intn(4)
			reqs[i].ID = id
		}
	case 2:
		ids := rng.Perm(n)
		for i := range reqs {
			reqs[i].ID = ids[i]
		}
		rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	return reqs
}

// premaNode builds a monolithic PREMA node, with a random derate fault
// schedule (kills, retries, retry-budget sheds) half the time.
func premaNode(t *testing.T, rng *rand.Rand, cfg arch.Config, prog *compiler.Program, pol sim.Policy, horizon float64, faultSeed int64) *sim.Node {
	n := &sim.Node{
		Cfg: cfg, Policy: pol, Params: energy.Default(),
		Programs: map[string]*compiler.Program{"prema-toy": prog},
	}
	if faultSeed >= 0 {
		sched, err := fault.Generate(16, 4, 40/horizon, horizon, horizon/20, faultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if n.Faults, err = fault.NewInjector(sched); err != nil {
			t.Fatal(err)
		}
		n.FaultMode = sim.FaultDerate
		n.MaxAttempts = rng.Intn(4)
	}
	return n
}

// TestTokenMatchesMapReference drives the slice-state policy and the
// map-based referee through random serving runs, fault kills and retries
// included: every decision must agree, and runs under either policy
// alone must produce bit-identical Outcomes.
func TestTokenMatchesMapReference(t *testing.T) {
	cfg := arch.Monolithic()
	prog := toyProg(t, cfg)
	iso := cfg.Seconds(prog.Table(cfg.NumSubarrays()).TotalCycles)
	rng := rand.New(rand.NewSource(17))
	decisions, killed, retries, shed := 0, 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		reqs := premaStream(rng, iso)
		horizon := 0.0
		for _, r := range reqs {
			horizon = math.Max(horizon, r.Arrival)
		}
		horizon += 10 * iso
		faultSeed := int64(-1)
		if rng.Intn(2) == 1 {
			faultSeed = rng.Int63()
		}
		attempts := rng.Int63()
		node := func(pol sim.Policy) *sim.Node {
			return premaNode(t, rand.New(rand.NewSource(attempts)), cfg, prog, pol, horizon, faultSeed)
		}

		ls := &lockstep{got: NewToken(cfg), want: newRefToken()}
		if _, err := node(ls).Run(reqs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ls.diffCall != 0 {
			t.Fatalf("trial %d: decision %d of %d (%d tasks) differs from the map reference",
				trial, ls.diffCall, ls.calls, ls.diffTasks)
		}
		decisions += ls.calls

		got, err := node(NewToken(cfg)).Run(reqs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := node(newRefToken()).Run(reqs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := outcomeDiff(got, want); d != "" {
			t.Fatalf("trial %d: outcome differs from the map reference: %s", trial, d)
		}
		killed, retries, shed = killed+got.Killed, retries+got.Retries, shed+got.Shed
	}
	if decisions < 1000 || killed == 0 || retries == 0 || shed == 0 {
		t.Fatalf("streams exercise too little: %d decisions, %d kills, %d retries, %d sheds",
			decisions, killed, retries, shed)
	}
	t.Logf("%d decisions, %d kills, %d retries, %d sheds", decisions, killed, retries, shed)
}

// outcomeDiff names the first field where two outcomes differ bit for
// bit, or returns "".
func outcomeDiff(a, b *sim.Outcome) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.Finishes) != len(b.Finishes) {
		return "length"
	}
	for i := range a.Finishes {
		if !same(a.Finishes[i], b.Finishes[i]) || !same(a.Latency[i], b.Latency[i]) {
			return "request timing"
		}
	}
	switch {
	case !same(a.EnergyJ, b.EnergyJ), !same(a.Makespan, b.Makespan), !same(a.BusyTime, b.BusyTime):
		return "energy or time"
	case !same(a.Fairness, b.Fairness):
		return "fairness"
	case a.Preemptions != b.Preemptions, a.Refissions != b.Refissions, a.MeetsSLA != b.MeetsSLA:
		return "preemptions or SLA"
	case a.Killed != b.Killed, a.Retries != b.Retries, a.Shed != b.Shed,
		a.Rejected != b.Rejected, a.FaultEvents != b.FaultEvents:
		return "fault tallies"
	}
	return ""
}
