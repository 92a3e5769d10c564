package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// TimeEps re-exports the repository-wide simulated-time comparison
// tolerance (see internal/simtime, which sits below both this package
// and internal/fault). Every due-at/later-than check in the engine, the
// fault injector, and the cluster front end uses the same tolerance.
const TimeEps = simtime.Eps

// configLoadCycles covers the double-buffered configuration-register swap
// and the per-subarray instruction-buffer prefetch on a re-allocation
// (§IV-C); the checkpoint DMA of one tile of intermediate results is
// modeled separately from the allocation's bandwidth share
// (Task.checkpointCycles).
const configLoadCycles = 500

// Malformed-input errors returned by ValidateRequest — and so by
// Node.Run and cluster.Run before any simulation starts; they wrap a
// message naming the offending request's input position.
var (
	// ErrBadArrival: a request's arrival instant is NaN or infinite.
	ErrBadArrival = errors.New("sim: request arrival is not a finite time")
	// ErrBadWork: a request's work multiplier is negative, NaN or
	// infinite. Zero is valid and means unscaled.
	ErrBadWork = errors.New("sim: request work is negative or not finite")
)

// ErrVerdictSink is returned by Node.MeetsSLA when the node has a
// recording sink attached (Trace, Obs, Attrib or Occ): a verdict run
// stops early, so it would leave a truncated artifact behind.
var ErrVerdictSink = errors.New("sim: MeetsSLA needs a node without Trace, Obs, Attrib or Occ")

// ValidateRequest checks one request's simulated-time inputs at an
// entry boundary: a finite arrival instant (ErrBadArrival) and a finite,
// non-negative work multiplier (ErrBadWork; zero means unscaled). pos is
// the request's position in the caller's input, which the error names.
func ValidateRequest(pos int, r *workload.Request) error {
	if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) ||
		r.Work < 0 || math.IsNaN(r.Work) || math.IsInf(r.Work, 0) {
		return badRequest(pos, r)
	}
	return nil
}

// badRequest names what ValidateRequest rejected. Formatting out of line
// keeps ValidateRequest's frame small on the per-request entry passes of
// Node.Run and cluster.Run.
//
//go:noinline
func badRequest(pos int, r *workload.Request) error {
	if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
		return fmt.Errorf("%w: request %d (ID %d) arrives at %v", ErrBadArrival, pos, r.ID, r.Arrival)
	}
	return fmt.Errorf("%w: request %d (ID %d) has work %v", ErrBadWork, pos, r.ID, r.Work)
}

// Outcome aggregates one simulated workload instance.
type Outcome struct {
	// Finishes[i] is the completion time of the i-th request of the
	// slice passed to Run (-1 if the request never completed: shed by
	// admission control, rejected for an unknown model, or dropped after
	// exhausting its fault-retry budget).
	Finishes []float64
	// Latency[i] = Finishes[i] − Arrival[i].
	Latency []float64
	// EnergyJ is total energy: per-task dynamic energy + chip leakage
	// over the makespan.
	EnergyJ float64
	// Makespan is the time from first arrival to last completion.
	Makespan float64
	// BusyTime is the total time at least one task was in flight; chip
	// leakage and fission-support overhead power are charged over it
	// (the chip power-gates when idle).
	BusyTime float64
	// Fairness is the PREMA metric min_{i,j} PP_i/PP_j.
	Fairness float64
	// Preemptions counts allocation changes of running tasks.
	Preemptions int
	// Refissions counts elastic re-fission resizes: allocation changes
	// applied at a Refissioner-scheduled wakeup rather than an arrival,
	// completion, quantum, or fault event. Always zero unless the policy
	// implements Refissioner and has it active.
	Refissions int
	// MeetsSLA reports the MLPerf server criterion over this instance.
	MeetsSLA bool

	// Fault-injection and degradation tallies (all zero when the node has
	// no injector and shedding is off). Requests that are shed, rejected,
	// or dropped keep Finishes[i] = -1 and count against the SLA.
	//
	// Killed counts fault-induced task kills; Retries counts the subset
	// re-enqueued after backoff (a kill past MaxAttempts sheds instead).
	Killed  int
	Retries int
	// Shed counts admission-control declines plus retry-budget
	// exhaustions.
	Shed int
	// Rejected counts requests for models the node has no program for.
	Rejected int
	// FaultEvents counts fault transitions (landings and repairs)
	// applied during the run.
	FaultEvents int
}

// Node simulates one accelerator under a scheduling policy.
type Node struct {
	Cfg    arch.Config
	Policy Policy
	// Programs maps model name → compiled program (matching Cfg).
	Programs map[string]*compiler.Program
	// Params are the energy constants.
	Params energy.Params
	// Trace, when non-nil, records the serving timeline (arrivals,
	// allocation changes, preemptions, queue samples, completions).
	Trace *Trace
	// Obs, when non-nil, receives metrics and timeline tracks on
	// simulated time (request lifecycle spans, per-task allocation
	// counters, queue occupancy). Nil costs only untaken branches.
	Obs *obs.Observer
	// Attrib, when non-nil, receives per-request phase-attribution
	// stamps (DESIGN.md §14): queue-wait, compute, preempt-stall,
	// retry-backoff, fault-stall boundaries plus the terminal cause,
	// addressed by input-slice position. Run resizes it to len(reqs).
	// Nil costs only untaken branches.
	Attrib *obs.Ledger
	// Occ, when non-nil, receives integer subarray-cycle occupancy
	// accounting: every event interval's wall-cycles split into
	// busy/reconfig/faulted/idle unit-cycles. Nil costs only untaken
	// branches.
	Occ *obs.Occupancy
	// PenaltyScale multiplies every re-allocation penalty (tile drain,
	// checkpoint DMA, configuration load). 0 = free preemption, 1 =
	// default; used by the reconfiguration-cost sensitivity ablation.
	// Zero value means 1.
	PenaltyScale float64

	// Faults, when non-nil, replays a deterministic fault schedule
	// against the node: transitions are applied exactly at their
	// simulated instants, victims are killed and re-enqueued with capped
	// exponential backoff, and capacity/throughput degrade per FaultMode.
	// Nil keeps the fault-free paths bit-identical to a node without any
	// fault machinery.
	Faults *fault.Injector
	// FaultMode selects fission masking (Planaria) or monolithic
	// derating (PREMA baseline). Meaningful only with Faults set.
	FaultMode FaultMode
	// Shed selects the admission-control policy (default ShedNone).
	Shed ShedPolicy
	// RetryBase and RetryCap bound the kill-retry backoff in simulated
	// seconds (zero values mean 200 µs and 5 ms). MaxAttempts caps how
	// often one request may be killed before it is shed; 0 = unlimited.
	RetryBase   float64
	RetryCap    float64
	MaxAttempts int
}

// nodeScratch holds one Run's large non-escaping working buffers,
// recycled through a sync.Pool so back-to-back simulations (cluster
// shards, sweeps, benchmarks) stop paying a large-allocation zeroing
// tax per run. Task records are engine-owned: nothing in an Outcome,
// Trace, or observer references them, and policies must not retain
// *Task pointers across calls (the scheduling contract), so the arena
// is free for reuse the moment Run returns. Every buffer is either
// appended from empty or fully overwritten before it is read, so stale
// contents cannot influence a run.
type nodeScratch struct {
	arena      []Task
	tasks      []*Task
	allocBuf   []int
	retry      []retryEntry
	prevUsable []bool
}

// slaDomain is one domain's request count and definite misses so far,
// the state of MeetsSLA's early verdict.
type slaDomain struct {
	name          string
	total, misses int
}

// domainIndex returns the slot of domain in doms, appending one on first
// sight. The handful of domains is scanned linearly, like workload's own
// SLA tallies.
func domainIndex(doms []slaDomain, domain string) ([]slaDomain, int) {
	for i := range doms {
		if doms[i].name == domain {
			return doms, i
		}
	}
	return append(doms, slaDomain{name: domain}), len(doms)
}

var nodeScratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

// penaltyScale returns the effective multiplier.
func (n *Node) penaltyScale() float64 {
	if n.PenaltyScale == 0 {
		return 1
	}
	if n.PenaltyScale < 0 {
		return 0
	}
	return n.PenaltyScale
}

// Run simulates the requests to completion and computes the outcome
// metrics. Isolated times for fairness come from each program's
// full-allocation table.
func (n *Node) Run(reqs []workload.Request) (*Outcome, error) {
	return n.run(reqs, false)
}

// MeetsSLA reports what Run(reqs).MeetsSLA would, simulating only until
// the answer is certain. It runs Run's own event loop and counts each
// request's definite misses as they happen: a retirement later than its
// deadline, a shed (admission control or an exhausted retry budget), a
// reject, and a drain after the chip dies. As soon as some domain's
// misses leave its best case — every other request on time — short of
// the SLA target (workload.DomainFails), it returns false without
// simulating the rest; otherwise the run completes and the verdict is
// Run's. Requests still in flight are never counted early.
//
// Caveat: an error the full run would hit after that point (a policy
// stall or the livelock guard) is not reached, so MeetsSLA returns
// false, nil where Run returns the error. Errors up to the verdict are
// Run's own. A node with a recording sink attached fails with
// ErrVerdictSink instead of leaving a truncated trace, metrics view or
// ledger.
func (n *Node) MeetsSLA(reqs []workload.Request) (bool, error) {
	if n.Trace != nil || n.Obs != nil || n.Attrib != nil || n.Occ != nil {
		return false, ErrVerdictSink
	}
	out, err := n.run(reqs, true)
	if err != nil {
		return false, err
	}
	return out.MeetsSLA, nil
}

// run is Run's event loop. With verdict set it also tallies per-domain
// misses and returns as soon as the SLA cannot hold; the Outcome is then
// partial, with MeetsSLA false.
//
//perf:hot serving steady state: the per-event loop must not allocate (DESIGN.md §13)
func (n *Node) run(reqs []workload.Request, verdict bool) (*Outcome, error) {
	if n.Policy == nil {
		return nil, fmt.Errorf("sim: node has no policy")
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sim: no requests")
	}
	total := n.Cfg.NumSubarrays()
	// Per-event constants hoisted off the hot loop: the clock rate (the
	// Seconds/CyclesPerSecond conversions are pure functions of Cfg) and
	// the reallocation penalty multiplier.
	cps := n.Cfg.CyclesPerSecond()
	penScale := n.penaltyScale()
	if n.Faults != nil && n.FaultMode == FaultFission && n.Faults.Health().Units() != total {
		return nil, fmt.Errorf("sim: fault schedule has %d units, fission config has %d subarrays",
			n.Faults.Health().Units(), total)
	}

	// One pass over the input validates every request and classifies the
	// stream: identity IDs (ID == input position, what every generated
	// workload produces), strictly increasing IDs (unique by
	// construction), and strictly increasing arrivals (the Poisson
	// streams and the cluster's chronological dispatch order — the input
	// is then its own calendar). It also sums the fairness priorities in
	// input order and, for a verdict run, counts each domain's requests.
	identityIDs, increasingIDs, aliased := true, true, true
	prioSum := 0.0
	// The verdict's per-domain tallies: a handful of domains, held on
	// the stack.
	var domainBuf [4]slaDomain
	domains := domainBuf[:0]
	for i := range reqs {
		r := &reqs[i]
		if err := ValidateRequest(i, r); err != nil {
			return nil, err
		}
		if r.ID != i {
			identityIDs = false
		}
		if i > 0 {
			if r.ID <= reqs[i-1].ID {
				increasingIDs = false
			}
			if r.Arrival <= reqs[i-1].Arrival {
				aliased = false
			}
		}
		prioSum += float64(r.Priority)
		if verdict {
			var d int
			domains, d = domainIndex(domains, r.Domain)
			domains[d].total++
		}
	}

	// ID → input position. Identity streams use the ID itself and an
	// aliased calendar its own position, so the map is built only for the
	// copy-and-sort path, which reads it at admit, or to reject
	// duplicates among IDs that are not strictly increasing.
	var index map[int]int
	needIndex := !identityIDs && !aliased
	if needIndex || !increasingIDs {
		index = make(map[int]int, len(reqs))
		for i, r := range reqs {
			if _, dup := index[r.ID]; dup {
				return nil, fmt.Errorf("sim: duplicate request ID %d", r.ID)
			}
			index[r.ID] = i
		}
		if !needIndex {
			index = nil
		}
	}

	// Arrival calendar. An aliased input is used without copying; the
	// engine never mutates pending entries. Anything else takes the
	// copy-and-sort path, whose comparator and algorithm are unchanged so
	// tied arrivals keep their historical order.
	pending := reqs
	if !aliased {
		pending = make([]workload.Request, len(reqs))
		copy(pending, reqs)
		//perf:alloc-ok unsorted-input fallback: one sort of a copied stream, sorted streams never enter
		sort.Slice(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	}

	// Task records come from one pooled arena: at most one task is ever
	// created per request (retries re-enqueue the same record), so the
	// arena never grows and the pointers stay stable for the whole run.
	sc := nodeScratchPool.Get().(*nodeScratch)
	arena := sc.arena
	if cap(arena) < len(pending) {
		arena = make([]Task, len(pending))
	} else {
		arena = arena[:len(pending)]
	}
	usedArena := 0

	tasks := sc.tasks[:0] // active
	allocBuf := sc.allocBuf[:0]
	prevUsable := sc.prevUsable[:0]
	retryQ := retryHeap{entries: sc.retry[:0]}
	defer func() {
		sc.arena, sc.tasks = arena, tasks[:0]
		sc.allocBuf, sc.prevUsable = allocBuf[:0], prevUsable[:0]
		sc.retry = retryQ.entries[:0]
		nodeScratchPool.Put(sc)
	}()

	//perf:alloc-ok single result object per run
	out := &Outcome{
		Finishes: make([]float64, len(reqs)),
		Latency:  make([]float64, len(reqs)),
	}
	for i := range out.Finishes {
		out.Finishes[i] = -1
	}

	// Observability handles: nil registry/tracer yields nil handles whose
	// methods are no-ops, so the probes below cost only untaken branches
	// when observability is off.
	reg := n.Obs.Registry()
	tracer := n.Obs.Tracer()
	cRequests := reg.Counter("sim_requests_total")
	cDone := reg.Counter("sim_completions_total")
	cPreempt := reg.Counter("sim_preemptions_total")
	cSched := reg.Counter("sim_sched_events_total")
	cKills := reg.Counter("sim_kills_total")
	cRetries := reg.Counter("sim_retries_total")
	cSheds := reg.Counter("sim_sheds_total")
	cRejects := reg.Counter("sim_rejects_total")
	cFaults := reg.Counter("fault_events_total")
	gAlive := reg.Gauge("fault_alive_subarrays")
	gDepth := reg.Gauge("sim_queue_depth_max")
	lastDepth, lastRunning := -1, -1
	// Per-model latency-histogram handles, interned on first completion so
	// the steady state skips the registry's label canonicalization.
	var latHists map[string]*obs.Histogram
	var durBounds []float64
	if reg != nil {
		latHists = make(map[string]*obs.Histogram, len(n.Programs))
		durBounds = obs.DurationBuckets()
	}
	// Attribution handles (DESIGN.md §14): nil ledger/accountant means
	// every stamp below is an untaken branch. The ledger is resized to
	// the input so stamps address records by the same positions the
	// Outcome uses.
	led := n.Attrib
	occ := n.Occ
	if led != nil {
		led.Reset(len(reqs))
	}
	if occ != nil {
		occ.SetUnits(int64(total))
	}
	// A typical request contributes arrival + alloc + finish plus a queue
	// sample; reserving 4 events per request keeps steady-state tracing
	// off the allocator (appends beyond the estimate still grow).
	n.Trace.Reserve(4 * len(pending))
	// Event-construction guard: with tracing off, the record calls below
	// are skipped entirely so no Event argument is ever materialized.
	tracing := n.Trace != nil

	// Model bindings interned once: the compiled program plus its
	// full-allocation isolated run time (the fairness numerator), so each
	// admit does a single map lookup and each retirement does none.
	binds := make(map[string]progBinding, len(n.Programs))
	for m, p := range n.Programs { //det:mapiter-ok builds a map from a map; contents are iteration-order-insensitive
		binds[m] = progBinding{prog: p, iso: float64(p.Table(total).TotalCycles) / cps}
	}

	// PREMA fairness (min_{i,j} PP_i/PP_j) folds online at retirement:
	// min and max of PP over finished tasks with a positive turnaround.
	finished := 0
	minPP, maxPP := math.Inf(1), 0.0

	// Early verdict: miss charges one definite SLA miss to a domain, and
	// doomed is set once that domain's best case fails the SLA.
	doomed := false
	miss := func(domain string) {
		_, d := domainIndex(domains, domain)
		dc := &domains[d]
		dc.misses++
		if workload.DomainFails(dc.name, dc.total-dc.misses, dc.total) {
			doomed = true
		}
	}

	now := pending[0].Arrival
	firstArrival := now
	nextPending := 0
	const maxIter = 10_000_000

	admit := func() {
		for nextPending < len(pending) && simtime.Due(pending[nextPending].Arrival, now) {
			r := &pending[nextPending]
			srcPos := nextPending
			nextPending++
			// The request's position in the caller's slice: the ID itself
			// for identity streams, the calendar position for aliased
			// inputs, and an index lookup only on the cold copy-and-sort
			// path. Needed by every branch below (the ledger addresses
			// terminal records by position too, not just admits).
			pos := r.ID
			if !identityIDs {
				if aliased {
					pos = srcPos
				} else {
					pos = index[r.ID]
				}
			}
			bind, ok := binds[r.Model]
			if !ok {
				if tracing {
					n.Trace.record(Event{Time: r.Arrival, Kind: EvArrival, Task: r.ID, Model: r.Model})
				}
				if tracing {
					n.Trace.record(Event{Time: r.Arrival, Kind: EvReject, Task: r.ID, Model: r.Model})
				}
				cRequests.Inc()
				cRejects.Inc()
				out.Rejected++
				if verdict {
					miss(r.Domain)
				}
				if led != nil {
					led.Terminal(pos, r.Arrival, r.Arrival, obs.PhaseQueueWait, obs.CauseRejected)
				}
				continue
			}
			if tracing {
				n.Trace.record(Event{Time: r.Arrival, Kind: EvArrival, Task: r.ID, Model: r.Model})
			}
			cRequests.Inc()
			if n.shouldShed(now, bind.prog, r, total, len(tasks)) {
				if tracing {
					n.Trace.record(Event{Time: now, Kind: EvShed, Task: r.ID, Model: r.Model})
				}
				cSheds.Inc()
				out.Shed++
				if verdict {
					miss(r.Domain)
				}
				if led != nil {
					led.Terminal(pos, r.Arrival, now, obs.PhaseQueueWait, obs.CauseShedChip)
				}
				continue
			}
			t := &arena[usedArena]
			usedArena++
			// Field writes rather than a composite literal: the literal
			// materializes a 200-byte temporary and block-copies it into
			// the arena slot on every admit.
			t.ID = r.ID
			t.Req = *r
			t.Prog = bind.prog
			t.Layer, t.Frac = 0, 0
			t.Alloc, t.PenaltyCycles = 0, 0
			t.Finish = -1
			t.EnergyJ = 0
			t.Preemptions = 0
			t.iso = bind.iso
			t.pos = pos
			t.Attempts = 0
			if led != nil {
				led.Open(pos, r.Arrival, obs.PhaseQueueWait)
				t.phase = obs.PhaseQueueWait
			}
			tasks = append(tasks, t)
		}
		// Killed tasks whose backoff has elapsed rejoin the queue; a task
		// whose prospects died with the chip's capacity is shed here.
		for retryQ.Len() > 0 && simtime.Due(retryQ.peek().at, now) {
			e := retryQ.pop()
			if n.shouldShed(now, e.t.Prog, &e.t.Req, total, len(tasks)) {
				if tracing {
					n.Trace.record(Event{Time: now, Kind: EvShed, Task: e.t.ID, Model: e.t.Req.Model, Attempt: e.t.Attempts})
				}
				cSheds.Inc()
				out.Shed++
				out.EnergyJ += e.t.EnergyJ
				if verdict {
					miss(e.t.Req.Domain)
				}
				if led != nil {
					led.Close(e.t.pos, now, obs.CauseShedRetries)
				}
				continue
			}
			if tracing {
				n.Trace.record(Event{Time: now, Kind: EvRetry, Task: e.t.ID, Model: e.t.Req.Model, Attempt: e.t.Attempts})
			}
			if led != nil {
				led.Mark(e.t.pos, now, obs.PhaseQueueWait)
				e.t.phase = obs.PhaseQueueWait
			}
			tasks = append(tasks, e.t)
		}
	}

	kill := func(t *Task) {
		t.Attempts++
		t.Alloc, t.Layer, t.Frac, t.PenaltyCycles = 0, 0, 0, 0
		if tracing {
			n.Trace.record(Event{Time: now, Kind: EvKill, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
		}
		cKills.Inc()
		out.Killed++
		if tracer != nil {
			tracer.Instant("faults", fmt.Sprintf("kill task %d (attempt %d)", t.ID, t.Attempts), now,
				obs.Str("model", t.Req.Model), obs.Num("attempt", float64(t.Attempts)))
			tracer.Counter(taskTrack(t.ID), "subarrays", now, 0)
		}
		if n.MaxAttempts > 0 && t.Attempts > n.MaxAttempts {
			if tracing {
				n.Trace.record(Event{Time: now, Kind: EvShed, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
			}
			cSheds.Inc()
			out.Shed++
			out.EnergyJ += t.EnergyJ
			if verdict {
				miss(t.Req.Domain)
			}
			if led != nil {
				led.Close(t.pos, now, obs.CauseShedRetries)
			}
			return
		}
		if led != nil {
			led.Mark(t.pos, now, obs.PhaseRetryBackoff)
			t.phase = obs.PhaseRetryBackoff
		}
		retryQ.push(retryEntry{t: t, at: now + n.backoff(t.Attempts)})
		out.Retries++
		cRetries.Inc()
	}

	// applyFaults applies every fault transition due at or before now:
	// records the transitions, kills the victims, and hands the updated
	// health mask to a health-aware policy. No-op without an injector.
	// prevUsable comes from the run scratch, reused across invocations.
	applyFaults := func() {
		if n.Faults == nil {
			return
		}
		h := n.Faults.Health()
		prev := prevUsable[:0]
		for i := 0; i < h.Units(); i++ {
			prev = append(prev, h.UsableSub(i))
		}
		prevUsable = prev
		changes := n.Faults.AdvanceTo(now)
		if len(changes) == 0 {
			return
		}
		anyDown := false
		for _, ch := range changes {
			if !ch.Up {
				anyDown = true
			}
			if tracing {
				n.Trace.record(Event{Time: ch.Time, Kind: EvFault, Unit: ch.Event.Unit, Up: ch.Up, Model: ch.Event.Kind.String()})
			}
			cFaults.Inc()
			out.FaultEvents++
			if tracer != nil {
				dir := "lands"
				if ch.Up {
					dir = "repairs"
				}
				tracer.Instant("faults", fmt.Sprintf("%s fault %s on unit %d", ch.Event.Kind, dir, ch.Event.Unit), ch.Time,
					obs.Str("kind", ch.Event.Kind.String()), obs.Num("unit", float64(ch.Event.Unit)))
			}
		}
		gAlive.Set(float64(h.Alive()))
		if tracer != nil {
			tracer.Counter("chip", "alive_subarrays", now, float64(h.Alive()))
		}
		victims := faultVictims(tasks, prev, h, n.FaultMode, anyDown)
		if len(victims) > 0 {
			dead := make(map[int]bool, len(victims))
			for _, v := range victims {
				kill(v)
				dead[v.ID] = true
			}
			kept := tasks[:0]
			for _, t := range tasks {
				if !dead[t.ID] {
					kept = append(kept, t)
				}
			}
			tasks = kept
		}
		if ha, ok := n.Policy.(HealthAware); ok {
			ha.SetHealth(h.Mask())
		}
	}

	admit()

	// Zero-allocation scheduling fast path: policies implementing
	// SliceAllocator write into a reusable positional buffer instead of
	// returning a fresh map per event.
	sliceAlloc, fastPolicy := n.Policy.(SliceAllocator)

	// Elastic re-fission (DESIGN.md §16): an active Refissioner policy
	// gets scheduling wakeups at tile boundaries it asks for, so it can
	// re-split the chip between the ordinary events. Without one, refis
	// stays nil and refAt +Inf, so no iteration is a re-fission instant,
	// and the refission counters are not even registered (metrics
	// snapshots of non-elastic runs are unchanged).
	var refis Refissioner
	if r, ok := n.Policy.(Refissioner); ok && r.RefissionActive() {
		refis = r
	}
	var cRefis, cRefisGrow, cRefisShrink *obs.Counter
	if refis != nil {
		cRefis = reg.Counter("sim_refissions_total")
		cRefisGrow = reg.Counter("sim_refission_grows_total")
		cRefisShrink = reg.Counter("sim_refission_shrinks_total")
	}
	refAt := math.Inf(1)

	for iter := 0; ; iter++ {
		if doomed {
			// Verdict run: the SLA cannot hold whatever happens next, and
			// the partial Outcome reports MeetsSLA false.
			return out, nil
		}
		if iter > maxIter {
			return nil, fmt.Errorf("sim: exceeded %d events (livelock?) at t=%.9f: %d tasks, %d retries queued, %d/%d arrivals admitted",
				maxIter, now, len(tasks), retryQ.Len(), nextPending, len(pending))
		}
		applyFaults()
		if len(tasks) == 0 {
			if nextPending >= len(pending) && retryQ.Len() == 0 {
				break
			}
			wake := math.Inf(1)
			if nextPending < len(pending) {
				wake = pending[nextPending].Arrival
			}
			if retryQ.Len() > 0 && retryQ.peek().at < wake {
				wake = retryQ.peek().at
			}
			if occ != nil && wake > now {
				// Empty-queue jump: the whole chip sits idle (or masked)
				// until the next arrival or retry wakes it.
				occ.Interval(int64(math.Ceil((wake-now)*cps)), 0, 0, int64(total-n.capacity(total)))
			}
			// The queue emptied, so any pending re-fission wakeup is moot;
			// clear it so the jump target cannot coincide with a stale one.
			refAt = math.Inf(1)
			now = wake
			applyFaults()
			admit()
			continue
		}
		sp := n.speed()
		capNow := n.capacity(total)
		// This iteration is a re-fission instant iff the loop woke exactly
		// at the Refissioner's requested time (next-event selection below
		// folds refAt into the minimum, so equality is exact; refAt is +Inf
		// without a Refissioner and now is always finite).
		atRef := now == refAt
		if capNow == 0 || sp == 0 {
			// Every subarray is masked: nothing can run until a repair,
			// which is the only event that can change capacity.
			nc := n.Faults.NextChange(now)
			if !math.IsInf(nc, 1) {
				if led != nil {
					for _, t := range tasks {
						if t.phase != obs.PhaseFaultStall {
							led.Mark(t.pos, now, obs.PhaseFaultStall)
							t.phase = obs.PhaseFaultStall
						}
					}
				}
				if occ != nil && nc > now {
					occ.Interval(int64(math.Ceil((nc-now)*cps)), 0, 0, int64(total))
				}
				now = nc
				continue
			}
			// The chip is permanently dead: no queued, retrying, or
			// still-to-arrive request can ever be served. Drain them all
			// as shed and end the run gracefully — their Finishes stay
			// -1 and count against the SLA.
			shedOne := func(at float64, pos, id int, model, domain string, attempt int, energy float64) {
				if tracing {
					n.Trace.record(Event{Time: at, Kind: EvShed, Task: id, Model: model, Attempt: attempt})
				}
				cSheds.Inc()
				out.Shed++
				out.EnergyJ += energy
				if verdict {
					miss(domain)
				}
				if led != nil {
					// Terminal works for open and never-opened records
					// alike: the Open half degrades to a zero-length mark
					// when a chain already exists.
					led.Terminal(pos, at, at, obs.PhaseQueueWait, obs.CauseShedDeadChip)
				}
			}
			for _, t := range tasks {
				shedOne(now, t.pos, t.ID, t.Req.Model, t.Req.Domain, t.Attempts, t.EnergyJ)
			}
			tasks = tasks[:0]
			for retryQ.Len() > 0 {
				e := retryQ.pop()
				shedOne(now, e.t.pos, e.t.ID, e.t.Req.Model, e.t.Req.Domain, e.t.Attempts, e.t.EnergyJ)
			}
			for ; nextPending < len(pending); nextPending++ {
				r := pending[nextPending]
				if tracing {
					n.Trace.record(Event{Time: r.Arrival, Kind: EvArrival, Task: r.ID, Model: r.Model})
				}
				cRequests.Inc()
				pos := r.ID
				if !identityIDs {
					if aliased {
						pos = nextPending
					} else {
						pos = index[r.ID]
					}
				}
				shedOne(r.Arrival, pos, r.ID, r.Model, r.Domain, 0, 0)
			}
			break
		}

		// Scheduling event: invoke the policy and apply re-allocations.
		var alloc map[int]int
		if fastPolicy {
			if cap(allocBuf) < len(tasks) {
				//perf:alloc-ok amortized growth of pooled scratch; steady state takes the cap fast path
				allocBuf = make([]int, len(tasks))
			}
			allocBuf = allocBuf[:len(tasks)]
			for i := range allocBuf {
				allocBuf[i] = 0
			}
			sliceAlloc.AllocateInto(now, tasks, capNow, allocBuf)
			if err := validateAllocationSlice(allocBuf, tasks, capNow); err != nil {
				return nil, err
			}
		} else {
			alloc = n.Policy.Allocate(now, tasks, capNow)
			if err := validateAllocation(alloc, tasks, capNow); err != nil {
				return nil, err
			}
		}
		cSched.Inc()
		running, inUse := 0, 0
		for ti, t := range tasks {
			na := 0
			if fastPolicy {
				na = allocBuf[ti]
			} else {
				na = alloc[t.ID]
			}
			if na != t.Alloc {
				if tracing {
					n.Trace.record(Event{Time: now, Kind: EvAlloc, Task: t.ID, Model: t.Req.Model, Alloc: na})
				}
				wasRunning := t.Alloc > 0 && !t.Done()
				if atRef && !t.Done() {
					// An elastic resize at a tile boundary: grow a starved
					// task into freed subarrays or shrink an SLA-beating
					// donor. Recorded as EvRefission instead of EvPreempt;
					// the preemption counter still ticks for running tasks
					// (applyRealloc charges them and bumps Preemptions).
					if tracing {
						n.Trace.record(Event{Time: now, Kind: EvRefission, Task: t.ID, Model: t.Req.Model, Alloc: na})
					}
					cRefis.Inc()
					if na > t.Alloc {
						cRefisGrow.Inc()
					} else {
						cRefisShrink.Inc()
					}
					out.Refissions++
					if wasRunning {
						cPreempt.Inc()
					} else if na > 0 {
						// Growing a stalled task mid-run is not free: the
						// freed subarrays swap in its configuration and
						// prefetch its instructions (§IV-C) before work
						// resumes. Ordinary-event dispatches of queued tasks
						// stay free, exactly as before.
						t.PenaltyCycles += int64(float64(n.Cfg.ConfigSwapCycles(na)) * penScale)
					}
					if tracer != nil {
						tracer.Instant("sched", fmt.Sprintf("refission task %d -> %d", t.ID, na), now,
							obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
					}
				} else if wasRunning {
					// A running task's allocation changed: a preemption
					// (full, on PREMA's context switch; partial, on a
					// Planaria re-fission).
					if tracing {
						n.Trace.record(Event{Time: now, Kind: EvPreempt, Task: t.ID, Model: t.Req.Model, Alloc: na})
					}
					cPreempt.Inc()
					if tracer != nil {
						tracer.Instant("sched", fmt.Sprintf("preempt task %d -> %d", t.ID, na), now,
							obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
					}
				}
				if tracer != nil {
					tracer.Counter(taskTrack(t.ID), "subarrays", now, float64(na))
				}
			}
			t.applyRealloc(int64(na), &n.Cfg, penScale)
			if led != nil {
				// Phase transition at the scheduling event: allocated and
				// penalty-free means computing, allocated but draining a
				// re-allocation penalty means preempt-stall, unallocated
				// means queued. Stamp only actual transitions so steady
				// state adds no marks.
				ph := obs.PhaseQueueWait
				if t.Alloc > 0 {
					if t.PenaltyCycles > 0 {
						ph = obs.PhasePreemptStall
					} else {
						ph = obs.PhaseCompute
					}
				}
				if ph != t.phase {
					led.Mark(t.pos, now, ph)
					t.phase = ph
				}
			}
			if t.Alloc > 0 {
				running++
				inUse += t.Alloc
			}
		}
		if running == 0 {
			return nil, fmt.Errorf("sim: policy %s stalled all %d tasks", n.Policy.Name(), len(tasks))
		}
		if lastDepth != len(tasks) || lastRunning != running {
			lastDepth, lastRunning = len(tasks), running
			if tracing {
				n.Trace.record(Event{Time: now, Kind: EvQueue, Depth: lastDepth, Running: lastRunning})
			}
			gDepth.Max(float64(lastDepth))
			if tracer != nil {
				tracer.Counter("queue", "inflight", now, float64(lastDepth))
				tracer.Counter("queue", "running", now, float64(lastRunning))
			}
		}
		if tracer != nil {
			tracer.Counter("chip", "subarrays_in_use", now, float64(inUse))
		}

		// Next event: earliest completion, next arrival, quantum, fault
		// transition, or retry re-enqueue.
		next := math.Inf(1)
		for _, t := range tasks {
			if t.Alloc > 0 {
				rem := float64(t.RemainingCycles(t.Alloc)) / cps
				if sp != 1 {
					rem /= sp
				}
				fin := now + rem
				if fin < next {
					next = fin
				}
			}
		}
		if nextPending < len(pending) && pending[nextPending].Arrival < next {
			next = pending[nextPending].Arrival
		}
		if q := n.Policy.Quantum(); q > 0 && len(tasks) > running {
			// The quantum is a cycle-count epoch, so a derated chip takes
			// proportionally longer wall-clock to complete one. (Keeping it
			// wall-clock-fixed would let the per-switch reconfiguration
			// penalty outrun the work retired per epoch at low speeds —
			// tasks would thrash forever without progressing.)
			if sp != 1 {
				q /= sp
			}
			if now+q < next {
				next = now + q
			}
		}
		if n.Faults != nil {
			if nc := n.Faults.NextChange(now); nc < next {
				next = nc
			}
		}
		if retryQ.Len() > 0 && retryQ.peek().at < next {
			next = retryQ.peek().at
		}
		if refis != nil {
			// The Refissioner names the next tile boundary worth a
			// re-split (+Inf when the current fission needs no revisit);
			// fold it into the minimum so the loop wakes exactly there.
			refAt = refis.NextRefission(now, tasks, capNow)
			if refAt <= now {
				refAt = math.Inf(1)
			} else if refAt < next {
				next = refAt
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("sim: no next event with %d tasks active", len(tasks))
		}

		// Advance running tasks to the event time. Under derate the chip
		// retires work at the alive fraction of its nominal rate.
		dt := next - now
		out.BusyTime += dt
		work := dt * cps
		if sp != 1 {
			work *= sp
		}
		dtCycles := int64(math.Ceil(work))
		if dtCycles < 1 {
			dtCycles = 1
		}
		if occ != nil {
			// Occupancy accounting in wall-cycles (not derate-scaled work
			// cycles, so the split is speed-independent): each allocated
			// subarray is busy or — while its task drains a re-allocation
			// penalty — reconfiguring; fault-masked subarrays are faulted;
			// the rest idle. Zero-width intervals contribute nothing.
			var busyU, reconfU int64
			for _, t := range tasks {
				if t.Alloc > 0 {
					if t.PenaltyCycles > 0 {
						reconfU += int64(t.Alloc)
					} else {
						busyU += int64(t.Alloc)
					}
				}
			}
			occ.Interval(int64(math.Ceil(dt*cps)), busyU, reconfU, int64(total-capNow))
		}
		for _, t := range tasks {
			if t.Alloc > 0 {
				t.advance(dtCycles, n.Params)
			}
		}
		now = next

		// Retire finished tasks.
		kept := tasks[:0]
		for _, t := range tasks {
			if t.Done() && t.PenaltyCycles <= 0 {
				t.Finish = now
				if tracing {
					n.Trace.record(Event{Time: now, Kind: EvFinish, Task: t.ID, Model: t.Req.Model})
				}
				lat := now - t.Req.Arrival
				cDone.Inc()
				if reg != nil {
					h := latHists[t.Req.Model]
					if h == nil {
						h = reg.Histogram("sim_latency_seconds", durBounds,
							obs.L("model", t.Req.Model))
						latHists[t.Req.Model] = h
					}
					h.Observe(lat)
				}
				if tracer != nil {
					tracer.Span(taskTrack(t.ID), fmt.Sprintf("req %d %s", t.ID, t.Req.Model),
						t.Req.Arrival, now,
						obs.Str("model", t.Req.Model),
						obs.Num("priority", float64(t.Req.Priority)),
						obs.Num("latency_ms", lat*1e3),
						obs.Num("deadline_ms", (t.Req.Deadline-t.Req.Arrival)*1e3),
						obs.Num("preemptions", float64(t.Preemptions)))
					tracer.Counter(taskTrack(t.ID), "subarrays", now, 0)
				}
				if led != nil {
					led.Close(t.pos, now, obs.CauseDone)
				}
				if verdict && !workload.OnTime(now, t.Req.Deadline) {
					miss(t.Req.Domain)
				}
				idx := t.pos
				out.Finishes[idx] = now
				out.Latency[idx] = lat
				out.EnergyJ += t.EnergyJ
				out.Preemptions += t.Preemptions
				finished++
				if lat > 0 {
					// PP_i = (T_iso / T_multi) / (priority_i / Σ priority).
					v := (t.iso / lat) / (float64(t.Req.Priority) / prioSum)
					if v < minPP {
						minPP = v
					}
					if v > maxPP {
						maxPP = v
					}
				}
			} else {
				kept = append(kept, t)
			}
		}
		tasks = kept
		admit()
		if len(tasks) == 0 && nextPending >= len(pending) && retryQ.Len() == 0 {
			break
		}
	}

	out.Makespan = now - firstArrival
	// Chip leakage and fission-support overhead power over the busy time.
	out.EnergyJ += (energy.LeakageWatts(n.Cfg, n.Params) + energy.OverheadWatts(n.Cfg)) * out.BusyTime
	out.Fairness = 1
	if finished >= 2 && maxPP != 0 && !math.IsInf(minPP, 1) {
		out.Fairness = minPP / maxPP
	}
	out.MeetsSLA = workload.MeetsSLA(reqs, out.Finishes)
	return out, nil
}

// taskTrack names one request's timeline track; zero-padded so Perfetto's
// lexicographic track ordering matches request IDs.
func taskTrack(id int) string {
	return fmt.Sprintf("task %03d", id)
}

// progBinding is one model's interned admission state: its compiled
// program and the isolated full-chip run time used by the fairness
// metric.
type progBinding struct {
	prog *compiler.Program
	iso  float64
}
