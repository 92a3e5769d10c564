package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	// ErrBadPriority: a request's priority is outside 1..11.
	ErrBadPriority = errors.New("sim: request priority is outside 1..11")
	// ErrBadDeadline: a request's deadline is NaN or infinite.
	ErrBadDeadline = errors.New("sim: request deadline is not a finite time")
)

// ErrVerdictSink is returned by Node.MeetsSLA when the node has a
// recording sink attached (Trace, Obs, Attrib or Occ): a verdict run
// stops early, so it would leave a truncated artifact behind.
var ErrVerdictSink = errors.New("sim: MeetsSLA needs a node without Trace, Obs, Attrib or Occ")

// ValidateRequest checks one request at an entry boundary: a finite
// arrival instant (ErrBadArrival), a finite, non-negative work
// multiplier (ErrBadWork; zero means unscaled), a priority in 1..11
// (ErrBadPriority), and a finite deadline (ErrBadDeadline). pos is the
// request's position in the caller's input, which the error names.
func ValidateRequest(pos int, r *workload.Request) error {
	if !finite(r.Arrival) || r.Work < 0 || !finite(r.Work) ||
		r.Priority < 1 || r.Priority > 11 || !finite(r.Deadline) {
		return badRequest(pos, r)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// badRequest names what ValidateRequest rejected. Formatting out of line
// keeps ValidateRequest's frame small on the per-request entry passes of
// Node.Run and cluster.Run.
//
//go:noinline
func badRequest(pos int, r *workload.Request) error {
	switch {
	case !finite(r.Arrival):
		return fmt.Errorf("%w: request %d (ID %d) arrives at %v", ErrBadArrival, pos, r.ID, r.Arrival)
	case r.Work < 0 || !finite(r.Work):
		return fmt.Errorf("%w: request %d (ID %d) has work %v", ErrBadWork, pos, r.ID, r.Work)
	case r.Priority < 1 || r.Priority > 11:
		return fmt.Errorf("%w: request %d (ID %d) has priority %d", ErrBadPriority, pos, r.ID, r.Priority)
	}
	return fmt.Errorf("%w: request %d (ID %d) has deadline %v", ErrBadDeadline, pos, r.ID, r.Deadline)
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

// maxIter bounds one run's event-loop iterations (the livelock guard).
const maxIter = 10_000_000

// slaTally is MeetsSLA's early-verdict state: per-domain request counts
// and definite misses (a handful of domains, scanned linearly from an
// inline array), and whether some domain's SLA has already failed.
type slaTally struct {
	buf     [4]slaDomain
	domains []slaDomain
	doomed  bool
}

type slaDomain struct {
	name          string
	total, misses int
}

// slot returns domain's tally, adding one on first sight.
func (s *slaTally) slot(domain string) *slaDomain {
	for i := range s.domains {
		if s.domains[i].name == domain {
			return &s.domains[i]
		}
	}
	s.domains = append(s.domains, slaDomain{name: domain})
	return &s.domains[len(s.domains)-1]
}

// miss charges one definite SLA miss to domain; doomed is set once that
// domain's best case — every other request on time — fails the SLA.
func (s *slaTally) miss(domain string) {
	d := s.slot(domain)
	d.misses++
	if workload.DomainFails(d.name, d.total-d.misses, d.total) {
		s.doomed = true
	}
}

// calendar is the arrival calendar: the requests in arrival order,
// consumed by a cursor. identity: every ID equals its input position;
// aliased: reqs is the caller's own slice; otherwise index maps ID →
// input position.
type calendar struct {
	reqs              []workload.Request
	next              int
	identity, aliased bool
	index             map[int]int
}

// posOf returns calendar entry i's position in the caller's input.
func (c *calendar) posOf(i int) int {
	switch {
	case c.identity:
		return c.reqs[i].ID
	case c.aliased:
		return i
	}
	return c.index[c.reqs[i].ID]
}

// mapAllocator adapts a Policy without SliceAllocator to the engine's
// one allocation path: it calls Allocate and writes the map by task
// position, keeping an allocation to an unknown task in err for the
// engine to return (the range and sum checks are the slice path's own).
type mapAllocator struct {
	p   Policy
	err error
}

// AllocateInto implements SliceAllocator.
func (a *mapAllocator) AllocateInto(now float64, tasks []*Task, total int, dst []int) {
	alloc := a.p.Allocate(now, tasks, total)
	known := 0
	for i, t := range tasks {
		if v, ok := alloc[t.ID]; ok {
			dst[i], known = v, known+1
		}
	}
	a.err = nil
	if known < len(alloc) {
		a.err = fmt.Errorf("sim: policy allocated to %d unknown tasks", len(alloc)-known)
	}
}

// nodeRun is one Run's state; its methods are the event loop's
// handlers. nodeRunPool recycles it so back-to-back simulations reuse
// its buffers and its (cleared) binds map. Task records are
// engine-owned (policies must not retain *Task pointers across calls),
// and every buffer is appended from empty or overwritten before it is
// read, so nothing stale reaches a run.
type nodeRun struct {
	node                  Node
	verdict               bool // MeetsSLA: tally misses, stop once the SLA fails
	total                 int  // physical subarrays
	cps, penScale         float64
	binds                 map[string]progBinding
	alloc                 SliceAllocator // the policy, or mapAlloc wrapping it
	mapAlloc              mapAllocator
	refis                 Refissioner // nil unless re-fission is active
	refAt                 float64     // its requested wakeup, +Inf for none
	cal                   calendar
	now                   float64
	arena                 []Task // one record per admitted request, pointers stable
	used                  int
	tasks                 []*Task // active: admitted, unfinished, not backing off
	retry                 retryHeap
	allocBuf              []int
	prevUsable            []bool
	out                   *Outcome
	prioSum, minPP, maxPP float64 // the online fairness fold
	finished              int
	sla                   slaTally

	// Sinks. Nil handles are no-ops, so a sink that is off costs only
	// untaken branches.
	trace                                  *Trace
	tracer                                 *obs.TraceBuilder
	reg                                    *obs.Registry
	led                                    *obs.Ledger
	occ                                    *obs.Occupancy
	cRequests, cDone, cPreempt, cSched     *obs.Counter
	cKills, cRetries, cSheds, cRejects     *obs.Counter
	cFaults, cRefis, cRefisGrow, cRefisShr *obs.Counter
	gAlive, gDepth                         *obs.Gauge
	latHists                               map[string]*obs.Histogram // interned on first completion
	durBounds                              []float64
	lastDepth, lastRunning                 int
}

var nodeRunPool = sync.Pool{New: func() any { return new(nodeRun) }}

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

// run drives one simulation: setup, then one handler per event kind
// until every request has finished, been shed or been rejected. With
// verdict set it returns as soon as the SLA cannot hold; the Outcome is
// then partial, with MeetsSLA false.
//
//perf:hot serving steady state: the per-event loop must not allocate (DESIGN.md §13)
func (n *Node) run(reqs []workload.Request, verdict bool) (*Outcome, error) {
	r := nodeRunPool.Get().(*nodeRun)
	defer func() {
		arena, tasks := r.arena, r.tasks[:0] // only the buffers outlive the run
		clear(r.binds)
		*r = nodeRun{binds: r.binds, retry: retryHeap{entries: r.retry.entries[:0]}, allocBuf: r.allocBuf[:0], prevUsable: r.prevUsable[:0]}
		r.arena, r.tasks = arena, tasks
		nodeRunPool.Put(r)
	}()
	out, err := r.setup(n, reqs, verdict)
	if err != nil {
		return nil, err
	}
	for iter, more := 0, true; more && !r.sla.doomed; iter++ {
		if iter > maxIter {
			err := fmt.Errorf("sim: exceeded %d events (livelock?) at t=%.9f: %d tasks, %d retries queued, %d/%d arrivals admitted",
				maxIter, r.now, len(r.tasks), r.retry.Len(), r.cal.next, len(r.cal.reqs))
			return nil, err
		}
		r.faults()
		sp, capNow := n.speed(), n.capacity(r.total)
		switch {
		case len(r.tasks) == 0:
			more = r.idle()
		case capNow == 0 || sp == 0:
			more = r.stalled()
		default:
			next, err := r.schedule(sp, capNow)
			if err != nil {
				return nil, err
			}
			r.advance(next, sp, capNow)
			r.retire()
			r.admit()
			more = !r.drained()
		}
	}
	r.finish(reqs)
	return out, nil
}

// setup prepares a run: it validates and classifies the input, builds
// the arrival calendar, binds the sinks, the programs and the policy's
// allocation path, and admits the first arrivals.
//
//perf:cold per-run setup before the event loop: entry pass, calendar, bindings, sinks
func (r *nodeRun) setup(n *Node, reqs []workload.Request, verdict bool) (*Outcome, error) {
	if n.Policy == nil {
		return nil, fmt.Errorf("sim: node has no policy")
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sim: no requests")
	}
	// A copy, so storing it in the pooled run does not move the caller's
	// Node to the heap.
	r.node, r.verdict = *n, verdict
	r.total, r.cps, r.penScale = n.Cfg.NumSubarrays(), n.Cfg.CyclesPerSecond(), n.penaltyScale()
	if n.Faults != nil && n.FaultMode == FaultFission && n.Faults.Health().Units() != r.total {
		return nil, fmt.Errorf("sim: fault schedule has %d units, fission config has %d subarrays",
			n.Faults.Health().Units(), r.total)
	}
	if err := r.scan(reqs); err != nil {
		return nil, err
	}
	if cap(r.arena) < len(reqs) {
		r.arena = make([]Task, len(reqs))
	} else {
		r.arena = r.arena[:len(reqs)]
	}
	r.out = &Outcome{Finishes: make([]float64, len(reqs)), Latency: make([]float64, len(reqs))}
	for i := range r.out.Finishes {
		r.out.Finishes[i] = -1
	}
	// Sinks: nil handles are no-ops. The ledger is resized to the input,
	// so stamps address records by the positions the Outcome uses.
	reg := n.Obs.Registry()
	r.trace, r.reg, r.tracer = n.Trace, reg, n.Obs.Tracer()
	r.cRequests = reg.Counter("sim_requests_total")
	r.cDone = reg.Counter("sim_completions_total")
	r.cPreempt = reg.Counter("sim_preemptions_total")
	r.cSched = reg.Counter("sim_sched_events_total")
	r.cKills = reg.Counter("sim_kills_total")
	r.cRetries = reg.Counter("sim_retries_total")
	r.cSheds = reg.Counter("sim_sheds_total")
	r.cRejects = reg.Counter("sim_rejects_total")
	r.cFaults = reg.Counter("fault_events_total")
	r.gAlive = reg.Gauge("fault_alive_subarrays")
	r.gDepth = reg.Gauge("sim_queue_depth_max")
	r.lastDepth, r.lastRunning = -1, -1
	if reg != nil {
		r.latHists = make(map[string]*obs.Histogram, len(n.Programs))
		r.durBounds = obs.DurationBuckets()
	}
	r.led, r.occ = n.Attrib, n.Occ
	if r.led != nil {
		r.led.Reset(len(reqs))
	}
	if r.occ != nil {
		r.occ.SetUnits(int64(r.total))
	}
	// A typical request contributes arrival + alloc + finish plus a queue
	// sample; reserving 4 events per request keeps steady-state tracing
	// off the allocator (appends beyond the estimate still grow).
	n.Trace.Reserve(4 * len(reqs))
	if r.binds == nil {
		r.binds = make(map[string]progBinding, len(n.Programs))
	}
	for m, p := range n.Programs { //det:mapiter-ok builds a map from a map; contents are iteration-order-insensitive
		r.binds[m] = progBinding{prog: p, iso: float64(p.Table(r.total).TotalCycles) / r.cps}
	}
	r.mapAlloc.p, r.alloc = n.Policy, &r.mapAlloc
	if sa, ok := n.Policy.(SliceAllocator); ok {
		r.alloc = sa
	}
	// Elastic re-fission (DESIGN.md §16): an active Refissioner gets
	// scheduling wakeups at the tile boundaries it asks for. Without one,
	// refAt stays +Inf and the refission counters are not even registered
	// (metrics snapshots of non-elastic runs are unchanged).
	r.refAt = math.Inf(1)
	if rf, ok := n.Policy.(Refissioner); ok && rf.RefissionActive() {
		r.refis = rf
		r.cRefis = reg.Counter("sim_refissions_total")
		r.cRefisGrow = reg.Counter("sim_refission_grows_total")
		r.cRefisShr = reg.Counter("sim_refission_shrinks_total")
	}
	r.now = r.cal.reqs[0].Arrival
	r.minPP = math.Inf(1)
	r.admit()
	return r.out, nil
}

// scan is the entry pass. One walk validates every request and
// classifies the stream: identity IDs (what every generated workload
// has), strictly increasing IDs (unique by construction), and strictly
// increasing arrivals (the input is then its own calendar). It sums the
// fairness priorities in input order, counts each domain's requests for
// a verdict run, rejects duplicate IDs and builds the calendar.
func (r *nodeRun) scan(reqs []workload.Request) error {
	identity, increasing, aliased := true, true, true
	r.sla.domains = r.sla.buf[:0]
	for i := range reqs {
		q := &reqs[i]
		if err := ValidateRequest(i, q); err != nil {
			return err
		}
		if q.ID != i {
			identity = false
		}
		if i > 0 {
			if q.ID <= reqs[i-1].ID {
				increasing = false
			}
			if q.Arrival <= reqs[i-1].Arrival {
				aliased = false
			}
		}
		r.prioSum += float64(q.Priority)
		if r.verdict {
			r.sla.slot(q.Domain).total++
		}
	}
	c := &r.cal
	c.identity, c.aliased, c.reqs = identity, aliased, reqs
	// ID → input position. Identity streams use the ID itself and an
	// aliased calendar its own position, so the map is kept only for the
	// copy-and-sort path, and built otherwise only to reject duplicates
	// among IDs that are not strictly increasing.
	needIndex := !identity && !aliased
	if needIndex || !increasing {
		index := make(map[int]int, len(reqs))
		for i, q := range reqs {
			if _, dup := index[q.ID]; dup {
				return fmt.Errorf("sim: duplicate request ID %d", q.ID)
			}
			index[q.ID] = i
		}
		if needIndex {
			c.index = index
		}
	}
	// An aliased input is used without copying; the engine never mutates
	// calendar entries. Anything else takes the copy-and-sort path, whose
	// comparator and algorithm are unchanged so tied arrivals keep their
	// historical order.
	if !aliased {
		pending := make([]workload.Request, len(reqs))
		copy(pending, reqs)
		sort.Slice(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
		c.reqs = pending
	}
	return nil
}

// drained reports that nothing is left to do: no active task, no retry
// backing off, no arrival still to come.
func (r *nodeRun) drained() bool {
	return len(r.tasks) == 0 && r.cal.next >= len(r.cal.reqs) && r.retry.Len() == 0
}

// admit handles arrivals and retry wakeups due now: every calendar entry
// arrived by now is admitted, shed or rejected, and killed tasks whose
// backoff has elapsed rejoin the queue — or are shed, when their
// prospects died with the chip's capacity.
func (r *nodeRun) admit() {
	c := &r.cal
	for c.next < len(c.reqs) && simtime.Due(c.reqs[c.next].Arrival, r.now) {
		req, pos := &c.reqs[c.next], c.posOf(c.next)
		c.next++
		r.admitOne(req, pos)
	}
	for r.retry.Len() > 0 && simtime.Due(r.retry.peek().at, r.now) {
		t := r.retry.pop().t
		if r.node.shouldShed(r.now, t.Prog, &t.Req, r.total, len(r.tasks)) {
			r.end(&t.Req, t.pos, t, math.NaN(), r.now, obs.CauseShedRetries)
			continue
		}
		if r.trace != nil {
			r.trace.record(Event{Time: r.now, Kind: EvRetry, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
		}
		if r.led != nil {
			r.led.Mark(t.pos, r.now, obs.PhaseQueueWait)
			t.phase = obs.PhaseQueueWait
		}
		r.tasks = append(r.tasks, t)
	}
}

// arrive records a request reaching the node.
func (r *nodeRun) arrive(req *workload.Request) {
	if r.trace != nil {
		r.trace.record(Event{Time: req.Arrival, Kind: EvArrival, Task: req.ID, Model: req.Model})
	}
	r.cRequests.Inc()
}

// admitOne handles one arrival: a request for a model without a program
// is rejected, one the admission controller declines is shed, and any
// other becomes a queued task.
func (r *nodeRun) admitOne(req *workload.Request, pos int) {
	r.arrive(req)
	bind, ok := r.binds[req.Model]
	if !ok {
		r.end(req, pos, nil, req.Arrival, req.Arrival, obs.CauseRejected)
		return
	}
	if r.node.shouldShed(r.now, bind.prog, req, r.total, len(r.tasks)) {
		r.end(req, pos, nil, req.Arrival, r.now, obs.CauseShedChip)
		return
	}
	t := &r.arena[r.used]
	r.used++
	// Field writes rather than a composite literal: the literal
	// materializes a 200-byte temporary and block-copies it into the
	// arena slot on every admit.
	t.ID = req.ID
	t.Req = *req
	t.Prog = bind.prog
	t.Layer, t.Frac = 0, 0
	t.Alloc, t.PenaltyCycles = 0, 0
	t.Finish = -1
	t.EnergyJ = 0
	t.Preemptions = 0
	t.iso = bind.iso
	t.pos = pos
	t.Attempts = 0
	if r.led != nil {
		r.led.Open(pos, req.Arrival, obs.PhaseQueueWait)
		t.phase = obs.PhaseQueueWait
	}
	r.tasks = append(r.tasks, t)
}

// end is the one terminal handler for a request that will not complete
// (reject, admission shed, retry shed, dead-chip drain): trace event,
// counter, Outcome tally, the energy its task t spent (nil if never
// admitted), verdict miss, and the ledger record closed at at — opened
// in queue-wait at from first, unless from is NaN.
func (r *nodeRun) end(req *workload.Request, pos int, t *Task, from, at float64, cause obs.Cause) {
	kind, attempt := EvShed, 0
	if t != nil {
		attempt = t.Attempts
		r.out.EnergyJ += t.EnergyJ
	}
	if cause == obs.CauseRejected {
		kind = EvReject
		r.cRejects.Inc()
		r.out.Rejected++
	} else {
		r.cSheds.Inc()
		r.out.Shed++
	}
	if r.trace != nil {
		r.trace.record(Event{Time: at, Kind: kind, Task: req.ID, Model: req.Model, Attempt: attempt})
	}
	if r.verdict {
		r.sla.miss(req.Domain)
	}
	if r.led != nil {
		if math.IsNaN(from) {
			r.led.Close(pos, at, cause)
		} else {
			r.led.Terminal(pos, from, at, obs.PhaseQueueWait, cause)
		}
	}
}

// faults applies the fault transitions due now: it records them, kills
// the victims, and hands the new health mask to a health-aware policy.
func (r *nodeRun) faults() {
	in := r.node.Faults
	// NextChange(-Inf) is the instant of the next unapplied transition.
	if in == nil || !simtime.Due(in.NextChange(math.Inf(-1)), r.now) {
		return
	}
	h := in.Health()
	prev := r.prevUsable[:0]
	for i := 0; i < h.Units(); i++ {
		prev = append(prev, h.UsableSub(i))
	}
	r.prevUsable = prev
	anyDown := false
	for _, ch := range in.AdvanceTo(r.now) {
		if !ch.Up {
			anyDown = true
		}
		if r.trace != nil {
			r.trace.record(Event{Time: ch.Time, Kind: EvFault, Unit: ch.Event.Unit, Up: ch.Up, Model: ch.Event.Kind.String()})
		}
		r.cFaults.Inc()
		r.out.FaultEvents++
		if r.tracer != nil {
			dir := "lands"
			if ch.Up {
				dir = "repairs"
			}
			r.tracer.Instant("faults", fmt.Sprintf("%s fault %s on unit %d", ch.Event.Kind, dir, ch.Event.Unit), ch.Time,
				obs.Str("kind", ch.Event.Kind.String()), obs.Num("unit", float64(ch.Event.Unit)))
		}
	}
	r.gAlive.Set(float64(h.Alive()))
	if r.tracer != nil {
		r.tracer.Counter("chip", "alive_subarrays", r.now, float64(h.Alive()))
	}
	if victims := faultVictims(r.tasks, prev, h, r.node.FaultMode, anyDown); len(victims) > 0 {
		for _, v := range victims {
			r.kill(v)
		}
		kept := r.tasks[:0]
		for _, t := range r.tasks {
			if !slices.Contains(victims, t) {
				kept = append(kept, t)
			}
		}
		r.tasks = kept
	}
	if ha, ok := r.node.Policy.(HealthAware); ok {
		ha.SetHealth(h.Mask())
	}
}

// kill takes a fault victim off the chip: its progress is lost, and it
// backs off for a retry, or is shed once it exhausts MaxAttempts.
func (r *nodeRun) kill(t *Task) {
	t.Attempts++
	t.Alloc, t.Layer, t.Frac, t.PenaltyCycles = 0, 0, 0, 0
	if r.trace != nil {
		r.trace.record(Event{Time: r.now, Kind: EvKill, Task: t.ID, Model: t.Req.Model, Attempt: t.Attempts})
	}
	r.cKills.Inc()
	r.out.Killed++
	if r.tracer != nil {
		r.tracer.Instant("faults", fmt.Sprintf("kill task %d (attempt %d)", t.ID, t.Attempts), r.now,
			obs.Str("model", t.Req.Model), obs.Num("attempt", float64(t.Attempts)))
		r.tracer.Counter(taskTrack(t.ID), "subarrays", r.now, 0)
	}
	if r.node.MaxAttempts > 0 && t.Attempts > r.node.MaxAttempts {
		r.end(&t.Req, t.pos, t, math.NaN(), r.now, obs.CauseShedRetries)
		return
	}
	if r.led != nil {
		r.led.Mark(t.pos, r.now, obs.PhaseRetryBackoff)
		t.phase = obs.PhaseRetryBackoff
	}
	r.retry.push(retryEntry{t: t, at: r.now + r.node.backoff(t.Attempts)})
	r.out.Retries++
	r.cRetries.Inc()
}

// wake returns the next arrival or retry wakeup, +Inf when neither is
// left.
func (r *nodeRun) wake() float64 {
	w := math.Inf(1)
	if c := &r.cal; c.next < len(c.reqs) {
		w = c.reqs[c.next].Arrival
	}
	if r.retry.Len() > 0 && r.retry.peek().at < w {
		w = r.retry.peek().at
	}
	return w
}

// idle jumps an empty chip to its next arrival or retry wakeup; it
// reports false when nothing is left to wake for.
func (r *nodeRun) idle() bool {
	if r.drained() {
		return false
	}
	wake := r.wake()
	if r.occ != nil && wake > r.now {
		r.occ.Interval(int64(math.Ceil((wake-r.now)*r.cps)), 0, 0, int64(r.total-r.node.capacity(r.total)))
	}
	// The queue emptied, so any pending re-fission wakeup is moot; clear
	// it so the jump target cannot coincide with a stale one.
	r.refAt = math.Inf(1)
	r.now = wake
	r.faults()
	r.admit()
	return true
}

// stalled handles a chip with every subarray masked: nothing can run
// until a repair, the only event that can change capacity, so the clock
// jumps there. A chip that will never recover drains every queued,
// retrying and still-to-arrive request as shed — their Finishes stay -1
// and count against the SLA — and stalled reports false.
func (r *nodeRun) stalled() bool {
	nc := r.node.Faults.NextChange(r.now)
	if math.IsInf(nc, 1) {
		for _, t := range r.tasks {
			r.end(&t.Req, t.pos, t, r.now, r.now, obs.CauseShedDeadChip)
		}
		r.tasks = r.tasks[:0]
		for r.retry.Len() > 0 {
			t := r.retry.pop().t
			r.end(&t.Req, t.pos, t, r.now, r.now, obs.CauseShedDeadChip)
		}
		for c := &r.cal; c.next < len(c.reqs); c.next++ {
			req := &c.reqs[c.next]
			r.arrive(req)
			r.end(req, c.posOf(c.next), nil, req.Arrival, req.Arrival, obs.CauseShedDeadChip)
		}
		return false
	}
	if r.led != nil {
		for _, t := range r.tasks {
			if t.phase != obs.PhaseFaultStall {
				r.led.Mark(t.pos, r.now, obs.PhaseFaultStall)
				t.phase = obs.PhaseFaultStall
			}
		}
	}
	if r.occ != nil && nc > r.now {
		r.occ.Interval(int64(math.Ceil((nc-r.now)*r.cps)), 0, 0, int64(r.total))
	}
	r.now = nc
	return true
}

// schedule handles a scheduling event: it invokes the policy, applies
// the re-allocations, samples the queue, and returns the next event.
func (r *nodeRun) schedule(sp float64, capNow int) (float64, error) {
	if cap(r.allocBuf) < len(r.tasks) {
		r.allocBuf = make([]int, len(r.tasks))
	}
	buf := r.allocBuf[:len(r.tasks)]
	for i := range buf {
		buf[i] = 0
	}
	r.allocBuf = buf
	r.alloc.AllocateInto(r.now, r.tasks, capNow, buf)
	if err := r.mapAlloc.err; err != nil {
		return 0, err
	}
	if err := validateAllocationSlice(buf, r.tasks, capNow); err != nil {
		return 0, err
	}
	r.cSched.Inc()
	// A re-fission instant iff the loop woke exactly at the
	// Refissioner's requested time (nextEvent folds refAt into the
	// minimum, so equality is exact; refAt is +Inf without one).
	atRef := r.now == r.refAt
	running, inUse := 0, 0
	for i, t := range r.tasks {
		r.reallocate(t, buf[i], atRef)
		if t.Alloc > 0 {
			running++
			inUse += t.Alloc
		}
	}
	if running == 0 {
		return 0, fmt.Errorf("sim: policy %s stalled all %d tasks", r.node.Policy.Name(), len(r.tasks))
	}
	if r.lastDepth != len(r.tasks) || r.lastRunning != running {
		r.lastDepth, r.lastRunning = len(r.tasks), running
		if r.trace != nil {
			r.trace.record(Event{Time: r.now, Kind: EvQueue, Depth: r.lastDepth, Running: r.lastRunning})
		}
		r.gDepth.Max(float64(r.lastDepth))
		if r.tracer != nil {
			r.tracer.Counter("queue", "inflight", r.now, float64(r.lastDepth))
			r.tracer.Counter("queue", "running", r.now, float64(r.lastRunning))
		}
	}
	if r.tracer != nil {
		r.tracer.Counter("chip", "subarrays_in_use", r.now, float64(inUse))
	}
	return r.nextEvent(sp, capNow, running)
}

// reallocate applies one task's new allocation na: it records the
// change — an elastic resize at a re-fission instant, a preemption of a
// running task, or a dispatch — charges the re-allocation penalty, and
// moves the task's ledger phase.
func (r *nodeRun) reallocate(t *Task, na int, atRef bool) {
	if na != t.Alloc {
		if r.trace != nil {
			r.trace.record(Event{Time: r.now, Kind: EvAlloc, Task: t.ID, Model: t.Req.Model, Alloc: na})
		}
		wasRunning := t.Alloc > 0 && !t.Done()
		if atRef && !t.Done() {
			// An elastic resize at a tile boundary: a starved task grows
			// into freed subarrays or an SLA-beating donor shrinks.
			// Recorded as EvRefission instead of EvPreempt; the preemption
			// counter still ticks for running tasks (applyRealloc charges
			// them and bumps Preemptions).
			if r.trace != nil {
				r.trace.record(Event{Time: r.now, Kind: EvRefission, Task: t.ID, Model: t.Req.Model, Alloc: na})
			}
			r.cRefis.Inc()
			if na > t.Alloc {
				r.cRefisGrow.Inc()
			} else {
				r.cRefisShr.Inc()
			}
			r.out.Refissions++
			if wasRunning {
				r.cPreempt.Inc()
			} else if na > 0 {
				// Growing a stalled task mid-run is not free: the freed
				// subarrays swap in its configuration and prefetch its
				// instructions (§IV-C) before work resumes. Ordinary-event
				// dispatches of queued tasks stay free.
				t.PenaltyCycles += int64(float64(r.node.Cfg.ConfigSwapCycles(na)) * r.penScale)
			}
			if r.tracer != nil {
				r.tracer.Instant("sched", fmt.Sprintf("refission task %d -> %d", t.ID, na), r.now,
					obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
			}
		} else if wasRunning {
			// A running task's allocation changed: a preemption (full, on
			// PREMA's context switch; partial, on a Planaria re-fission).
			if r.trace != nil {
				r.trace.record(Event{Time: r.now, Kind: EvPreempt, Task: t.ID, Model: t.Req.Model, Alloc: na})
			}
			r.cPreempt.Inc()
			if r.tracer != nil {
				r.tracer.Instant("sched", fmt.Sprintf("preempt task %d -> %d", t.ID, na), r.now,
					obs.Str("model", t.Req.Model), obs.Num("subarrays", float64(na)))
			}
		}
		if r.tracer != nil {
			r.tracer.Counter(taskTrack(t.ID), "subarrays", r.now, float64(na))
		}
	}
	t.applyRealloc(int64(na), &r.node.Cfg, r.penScale)
	if r.led != nil {
		// Allocated and penalty-free means computing, allocated but
		// draining a re-allocation penalty means preempt-stall,
		// unallocated means queued. Only transitions are stamped, so the
		// steady state adds no marks.
		ph := obs.PhaseQueueWait
		if t.Alloc > 0 {
			if t.PenaltyCycles > 0 {
				ph = obs.PhasePreemptStall
			} else {
				ph = obs.PhaseCompute
			}
		}
		if ph != t.phase {
			r.led.Mark(t.pos, r.now, ph)
			t.phase = ph
		}
	}
}

// nextEvent returns the next event instant: the earliest completion,
// arrival, quantum, fault transition, retry wakeup, or re-fission
// wakeup.
func (r *nodeRun) nextEvent(sp float64, capNow, running int) (float64, error) {
	next := math.Inf(1)
	for _, t := range r.tasks {
		if t.Alloc > 0 {
			rem := float64(t.RemainingCycles(t.Alloc)) / r.cps
			if sp != 1 {
				rem /= sp
			}
			if fin := r.now + rem; fin < next {
				next = fin
			}
		}
	}
	if w := r.wake(); w < next {
		next = w
	}
	if q := r.node.Policy.Quantum(); q > 0 && len(r.tasks) > running {
		// The quantum is a cycle-count epoch, so a derated chip takes
		// proportionally longer wall-clock to complete one. (Keeping it
		// wall-clock-fixed would let the per-switch reconfiguration
		// penalty outrun the work retired per epoch at low speeds — tasks
		// would thrash forever without progressing.)
		if sp != 1 {
			q /= sp
		}
		if r.now+q < next {
			next = r.now + q
		}
	}
	if r.node.Faults != nil {
		if nc := r.node.Faults.NextChange(r.now); nc < next {
			next = nc
		}
	}
	if r.refis != nil {
		// The Refissioner names the next tile boundary worth a re-split
		// (+Inf when the current fission needs no revisit); folding it
		// into the minimum wakes the loop exactly there.
		r.refAt = r.refis.NextRefission(r.now, r.tasks, capNow)
		if r.refAt <= r.now {
			r.refAt = math.Inf(1)
		} else if r.refAt < next {
			next = r.refAt
		}
	}
	if math.IsInf(next, 1) {
		return 0, fmt.Errorf("sim: no next event with %d tasks active", len(r.tasks))
	}
	return next, nil
}

// advance moves the running tasks and the clock to next. Under derate
// the chip retires work at the alive fraction of its nominal rate.
func (r *nodeRun) advance(next, sp float64, capNow int) {
	dt := next - r.now
	r.out.BusyTime += dt
	work := dt * r.cps
	if sp != 1 {
		work *= sp
	}
	dtCycles := int64(math.Ceil(work))
	if dtCycles < 1 {
		dtCycles = 1
	}
	if r.occ != nil {
		// Occupancy in wall-cycles (not derate-scaled work cycles, so the
		// split is speed-independent): each allocated subarray is busy or
		// — while its task drains a re-allocation penalty —
		// reconfiguring; fault-masked subarrays are faulted; the rest
		// idle. Zero-width intervals contribute nothing.
		var busyU, reconfU int64
		for _, t := range r.tasks {
			if t.Alloc > 0 {
				if t.PenaltyCycles > 0 {
					reconfU += int64(t.Alloc)
				} else {
					busyU += int64(t.Alloc)
				}
			}
		}
		r.occ.Interval(int64(math.Ceil(dt*r.cps)), busyU, reconfU, int64(r.total-capNow))
	}
	for _, t := range r.tasks {
		if t.Alloc > 0 {
			t.advance(dtCycles, r.node.Params)
		}
	}
	r.now = next
}

// retire completes every task that has finished its work and drained
// its re-allocation penalty.
func (r *nodeRun) retire() {
	kept := r.tasks[:0]
	for _, t := range r.tasks {
		if t.Done() && t.PenaltyCycles <= 0 {
			r.complete(t)
		} else {
			kept = append(kept, t)
		}
	}
	r.tasks = kept
}

// complete records one task's completion: trace, latency histogram,
// timeline span, ledger, Outcome slots, a verdict miss if it is late,
// and its term of the fairness fold.
func (r *nodeRun) complete(t *Task) {
	now := r.now
	t.Finish = now
	if r.trace != nil {
		r.trace.record(Event{Time: now, Kind: EvFinish, Task: t.ID, Model: t.Req.Model})
	}
	lat := now - t.Req.Arrival
	r.cDone.Inc()
	if r.reg != nil {
		h := r.latHists[t.Req.Model]
		if h == nil {
			h = r.reg.Histogram("sim_latency_seconds", r.durBounds, obs.L("model", t.Req.Model))
			r.latHists[t.Req.Model] = h
		}
		h.Observe(lat)
	}
	if r.tracer != nil {
		r.tracer.Span(taskTrack(t.ID), fmt.Sprintf("req %d %s", t.ID, t.Req.Model),
			t.Req.Arrival, now,
			obs.Str("model", t.Req.Model),
			obs.Num("priority", float64(t.Req.Priority)),
			obs.Num("latency_ms", lat*1e3),
			obs.Num("deadline_ms", (t.Req.Deadline-t.Req.Arrival)*1e3),
			obs.Num("preemptions", float64(t.Preemptions)))
		r.tracer.Counter(taskTrack(t.ID), "subarrays", now, 0)
	}
	if r.led != nil {
		r.led.Close(t.pos, now, obs.CauseDone)
	}
	if r.verdict && !workload.OnTime(now, t.Req.Deadline) {
		r.sla.miss(t.Req.Domain)
	}
	r.out.Finishes[t.pos] = now
	r.out.Latency[t.pos] = lat
	r.out.EnergyJ += t.EnergyJ
	r.out.Preemptions += t.Preemptions
	r.finished++
	if lat > 0 {
		// PP_i = (T_iso / T_multi) / (priority_i / Σ priority).
		v := (t.iso / lat) / (float64(t.Req.Priority) / r.prioSum)
		if v < r.minPP {
			r.minPP = v
		}
		if v > r.maxPP {
			r.maxPP = v
		}
	}
}

// finish computes the whole-run metrics. A verdict run stopped early
// keeps its partial Outcome, with MeetsSLA false.
func (r *nodeRun) finish(reqs []workload.Request) {
	if r.sla.doomed {
		return
	}
	out := r.out
	out.Makespan = r.now - r.cal.reqs[0].Arrival
	// Chip leakage and fission-support overhead power over the busy time.
	out.EnergyJ += (energy.LeakageWatts(r.node.Cfg, r.node.Params) + energy.OverheadWatts(r.node.Cfg)) * out.BusyTime
	out.Fairness = 1
	if r.finished >= 2 && r.maxPP != 0 && !math.IsInf(r.minPP, 1) {
		out.Fairness = r.minPP / r.maxPP
	}
	out.MeetsSLA = workload.MeetsSLA(reqs, out.Finishes)
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
