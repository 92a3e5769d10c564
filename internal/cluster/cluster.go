// Package cluster is the deterministic multi-chip serving front end: it
// dispatches one Poisson request stream across N independent accelerator
// chips — each chip a sim.Node running either the Planaria spatial
// scheduler or the PREMA baseline — through three stages:
//
//  1. Admission: per-QoS-level token buckets (simulated-time refill) with
//     a bounded wait queue; overflow sheds deterministically and reuses
//     the EvShed trace vocabulary.
//  2. Dynamic batching: per-model batch windows fuse requests that arrive
//     within BatchWindow (capped at MaxBatch) into one chip request that
//     shares a single allocation; completions fan back out to every
//     member. A fused batch of k costs 1 + α·(k−1) single inferences
//     (weight reuse amortizes the re-fetch, compute still scales).
//  3. Load balancing: a pluggable Balancer (round-robin,
//     least-outstanding-work, model-affinity rendezvous hashing) picks a
//     healthy chip per dispatch; per-chip fault schedules mask dead chips
//     out of the routable set, so the balancer routes around failures.
//
// Everything advances on simulated time only and every tie is broken
// explicitly, so a cluster run at a fixed seed is byte-reproducible
// (the package is in planaria-vet's deterministic set). A 1-chip cluster
// with admission and batching disabled is a bit-exact pass-through to
// sim.Node.Run — the conformance tests pin that identity.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/par"
	"planaria/internal/sim"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// DefaultBatchAlpha is the marginal cost of each extra fused inference:
// batch k costs 1 + α·(k−1) single runs.
const DefaultBatchAlpha = 0.35

// Config describes one cluster serving run.
type Config struct {
	// System is the chip template (architecture, compiled programs,
	// energy constants, and the per-chip scheduling policy constructor).
	System metrics.System
	// Chips is the cluster size (>= 1).
	Chips int
	// Policy names the load-balancing policy (see NewBalancer); empty
	// means "least-work".
	Policy string

	// BatchWindow is the per-model batching window in simulated seconds.
	// <= 0 disables the batching stage entirely (every request dispatches
	// at its admit instant, untouched).
	BatchWindow float64
	// MaxBatch caps a batch's size; reaching it closes the window early.
	// <= 0 means unbounded.
	MaxBatch int
	// BatchAlpha is the marginal batched-inference cost; 0 means
	// DefaultBatchAlpha, negative means free batching (cost 1).
	BatchAlpha float64

	// Admission maps QoS level name → token bucket. Nil or empty
	// disables admission control. Levels without a bucket fall back to
	// the "" bucket when present and admit freely otherwise.
	Admission map[string]TokenBucket

	// Scale, when non-nil, turns the fixed fleet into an autoscaled one:
	// Chips becomes the slot ceiling and a ScaleController moves the
	// active count between Scale.Min and Chips, with simulated boot
	// latency on the way up and graceful drain (migrate queued work,
	// finish in-flight, retire) on the way down. Nil keeps the exact
	// static-fleet behavior. See autoscale.go / DESIGN.md §15.
	Scale *Autoscale

	// Faults holds one fault schedule per chip (nil entries = healthy
	// chip). Nil disables fault injection cluster-wide.
	Faults []*fault.Schedule
	// FaultMode selects each chip's degradation mode (fission for
	// Planaria, derate for the PREMA baseline).
	FaultMode sim.FaultMode
	// Shed is each chip's local admission-control policy.
	Shed sim.ShedPolicy

	// Obs, when non-nil, receives the front-door metrics and timeline
	// (dispatch counters, batch-size histogram, cluster latency
	// histograms, batch spans).
	Obs *obs.Observer
	// Trace, when non-nil, records the front-door timeline: arrivals,
	// admission sheds, batch closes, dispatches.
	Trace *sim.Trace
	// Observe attaches a fresh obs.Observer to every chip node (exposed
	// on ChipResult.Obs for artifact comparison).
	Observe bool
	// ChipTraces attaches a sim.Trace to every chip node (exposed on
	// ChipResult.Trace).
	ChipTraces bool
	// Attrib enables SLA root-cause attribution (DESIGN.md §14): a
	// front-door phase ledger over the input stream, a per-chip ledger
	// and occupancy accountant on every node, and the chip/position
	// links joining them, exposed on Outcome.Attrib. Off by default;
	// the stamp sites cost only untaken branches when disabled.
	Attrib bool
}

// validate checks the configuration against the request stream.
func (c *Config) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("cluster: need at least 1 chip, got %d", c.Chips)
	}
	if c.System.NewPolicy == nil {
		return fmt.Errorf("cluster: system %q has no policy constructor", c.System.Name)
	}
	if c.Faults != nil && len(c.Faults) != c.Chips {
		return fmt.Errorf("cluster: %d fault schedules for %d chips", len(c.Faults), c.Chips)
	}
	if c.Scale != nil {
		if err := c.Scale.validate(c.Chips); err != nil {
			return err
		}
	}
	if c.FaultMode == sim.FaultFission {
		units := c.System.Cfg.NumSubarrays()
		for i, s := range c.Faults {
			if s != nil && s.Units != units {
				return fmt.Errorf("cluster: chip %d fault schedule has %d units, config has %d subarrays",
					i, s.Units, units)
			}
		}
	}
	return nil
}

// ChipResult is one chip's share of a cluster run.
type ChipResult struct {
	// Requests is the dispatch stream the chip served (merged batch
	// leaders, in dispatch order).
	Requests []workload.Request
	// Outcome is the chip's simulation outcome, nil when the chip
	// received no requests.
	Outcome *sim.Outcome
	// Trace is the chip's serving timeline (nil unless Config.ChipTraces).
	Trace *sim.Trace
	// Obs is the chip's private observer (nil unless Config.Observe).
	Obs *obs.Observer
	// Attrib is the chip's phase ledger, indexed like Requests (nil
	// unless Config.Attrib).
	Attrib *obs.Ledger
	// Occ is the chip's subarray-cycle occupancy accountant (nil unless
	// Config.Attrib).
	Occ *obs.Occupancy
}

// Outcome aggregates one cluster run over the original request stream.
type Outcome struct {
	// Finishes[i] / Latency[i] are indexed like the input slice;
	// Finishes[i] = −1 marks a request that never completed. A batched
	// request's latency runs from its own arrival to the shared batch
	// completion.
	Finishes []float64
	Latency  []float64

	// Terminal-state conservation: every request lands in exactly one of
	// these five tallies, so
	// Completed + ShedFront + ShedChips + Rejected + ShedDrain == len(reqs)
	// (ShedDrain is zero on static fleets).
	Completed int
	// ShedFront counts front-door declines: admission-bucket overflow
	// plus dispatches with no healthy chip left.
	ShedFront int
	// ShedChips counts requests (expanded to batch members) whose chip
	// shed them locally — doomed-deadline declines, retry-budget
	// exhaustion, and dead-chip drains.
	ShedChips int
	// Rejected counts requests for models no chip has a program for.
	Rejected int
	// ShedDrain counts requests queued on a draining chip with no
	// routable chip left to migrate to (autoscaled runs only).
	ShedDrain int
	// Migrated counts requests pulled off a draining chip and re-routed.
	// Informational, not part of the conservation partition: a migrated
	// request still terminates in one of the five tallies above.
	Migrated int

	// Killed/Retries/FaultEvents total the chips' fault tallies.
	Killed      int
	Retries     int
	FaultEvents int

	// Batches counts dispatch groups; BatchedReqs counts requests that
	// shared a batch of size >= 2; MeanBatchSize is members per dispatch.
	Batches       int
	BatchedReqs   int
	MeanBatchSize float64

	// Dispatched[c] counts dispatch groups routed to chip c.
	Dispatched []int

	// EnergyJ totals chip energy; Makespan spans first arrival to last
	// completion; MeetsSLA / DeadlineFrac apply the MLPerf server
	// criterion over the original stream.
	EnergyJ      float64
	Makespan     float64
	MeetsSLA     bool
	DeadlineFrac float64

	// PerChip holds each chip's share.
	PerChip []*ChipResult

	// Fleet is the autoscaled run's chip-lifecycle log (nil on static
	// fleets); Fleet.ChipSeconds costs the run in chip-time.
	Fleet *obs.Fleet

	// Attrib joins the front-door ledger with the per-chip ledgers (nil
	// unless Config.Attrib). See Outcome.AttribReport.
	Attrib *Attribution
}

// healthSteps is a chip's precomputed alive-subarray step function,
// replayed once from its fault schedule so the balancer can consult chip
// health at any dispatch instant without running the chip first.
type healthSteps struct {
	times []float64
	alive []int
}

// healthStepsOf replays a schedule into its step function. Nil (or
// empty) schedules yield nil: the chip is always fully alive.
//
//perf:cold per-run setup: health timelines build once before the serving loop
func healthStepsOf(s *fault.Schedule) (*healthSteps, error) {
	if s.Empty() {
		return nil, nil
	}
	in, err := fault.NewInjector(s)
	if err != nil {
		return nil, err
	}
	h := &healthSteps{}
	at := -1.0
	for in.Pending() {
		next := in.NextChange(at)
		if math.IsInf(next, 1) {
			break
		}
		in.AdvanceTo(next)
		h.times = append(h.times, next)
		h.alive = append(h.alive, in.Health().Alive())
		at = next
	}
	return h, nil
}

// aliveAt returns the chip's usable subarray count at time t.
func (h *healthSteps) aliveAt(t float64, total int) int {
	if h == nil {
		return total
	}
	// Last step at or before t.
	idx := sort.Search(len(h.times), func(i int) bool { return simtime.After(h.times[i], t) })
	if idx == 0 {
		return total
	}
	return h.alive[idx-1]
}

// dispatchRec is one routed dispatch group: the chip it went to, its
// position within the chip's request slice, and the input indices whose
// completions fan out from it. The merged request's adjusted fields are
// captured as scalars at routing time so the layout stage can rebuild
// it straight into the escaping backing array — a leader copy plus five
// scalar writes.
// On autoscaled runs chip can also be a tombstone: -1 marks a group shed
// during a drain (ShedDrain), -2 a group migrated away (a later record
// serves its members); both are skipped by the layout and merge stages.
type dispatchRec struct {
	chip     int
	pos      int     // position within the chip's request slice
	cost     float64 // estimated service seconds added to the chip's backlog
	members  []int
	at       float64 // merged Arrival (dispatch time)
	deadline float64 // merged Deadline (tightest member)
	qos      float64 // deadline - at
	prio     int     // merged Priority (highest member)
	work     float64 // merged Work (fused batch cost multiplier)
}

// openBatch is one in-flight batching window.
type openBatch struct {
	model   int // interned model ID (see admitted.model)
	closeAt float64
	members []int
	closed  bool
}

// admitted is one admitted request: its input position, admission
// instant, and interned model ID (position in the run's first-seen model
// list). int32 positions keep the record at 16 pointer-free bytes — the
// admits buffer is the largest piece of pooled scratch.
type admitted struct {
	at    float64
	idx   int32
	model int32
}

// runScratch holds Run's large working buffers that never escape the
// call, recycled through a sync.Pool so back-to-back runs (sweeps,
// benchmarks) stop paying a large-allocation zeroing tax per run. Every
// buffer is append-from-empty or fully rewritten before reads, so stale
// contents can never influence a run; retained memory is bounded by the
// largest run's high-water mark (and dropped wholesale at GC, as for
// any sync.Pool).
type runScratch struct {
	admits      []admitted
	dispatches  []dispatchRec
	ends        []float64 // autoscaled runs: estimated completion per dispatch record
	memberArena []int
	events      []sim.Event  // traced runs: stage-1 and dispatch-time front-door events
	batchPool   []*openBatch // free list of recycled batch windows
	queue       []*openBatch // FIFO of open windows, reused run to run
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// grow returns buf emptied with capacity for at least n elements.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Run serves the request stream through the cluster front end and the N
// chip simulations, then merges per-chip outcomes back onto the original
// stream. Requests must have unique IDs; each is dispatched to at most
// one chip. A request with a non-finite arrival or a negative or
// non-finite Work fails the run before anything is served
// (sim.ErrBadArrival, sim.ErrBadWork).
func Run(cfg Config, reqs []workload.Request) (*Outcome, error) {
	sc := scratchPool.Get().(*runScratch)
	f := &frontEnd{runScratch: *sc}
	defer func() {
		sc.admits, sc.dispatches, sc.ends = f.admits[:0], f.dispatches[:0], f.ends[:0]
		sc.memberArena, sc.events = f.memberArena[:0], f.events[:0]
		sc.batchPool, sc.queue = f.batchPool, f.queue[:0]
		scratchPool.Put(sc)
	}()
	if err := f.setup(cfg, reqs); err != nil {
		return nil, err
	}
	f.admit()
	f.walk()
	if err := f.runChips(f.layout()); err != nil {
		return nil, err
	}
	f.merge()
	f.export()
	return f.out, nil
}

// frontEnd is one Run's state. Run drives it through its stages in
// order — setup (validate and build), admit, the dispatch walk, layout,
// run chips, merge, export — one method each; the per-request work
// lives in admitOne and dispatch. Everything runs on one goroutine
// except the chip simulations, which write only their own results.
type frontEnd struct {
	runScratch // pooled buffers, handed back by Run

	cfg  Config
	reqs []workload.Request
	out  *Outcome

	balancer  Balancer
	admission *admissionState // nil: admission control off
	asc       *autoscaler     // nil: static fleet
	health    []*healthSteps  // per chip; nil entries are always healthy
	totalSub  int
	// iso is each model's isolated full-chip execution time, the
	// backlog estimate unit (the same estimate metrics.MinNodes uses).
	iso map[string]float64

	batching bool
	maxBatch int
	alpha    float64

	order        []int // admission walk order; nil means input order
	firstArrival float64

	// Models intern on first sight; isoByID caches each one's iso entry
	// so the dispatch walk indexes a flat slice instead of hashing.
	modelNames []string
	isoByID    []float64

	// Dispatch-walk state.
	chipCounts   []int     // groups laid out per chip so far
	busyUntil    []float64 // estimated end of each chip's backlog
	views        []ChipView
	membersTotal int
	openList     []*openBatch // open windows, at most one per model
	qHead        int          // head of the window FIFO (queue)

	// Observability (nil handles are no-ops when off). Trace events go
	// to events, or for the future-dated EvScaleDown of a traced
	// autoscaled run to retires; call sites check Config.Trace before
	// building one, since constructing a sim.Event costs real time per
	// request even when nothing records it.
	retires                                    []sim.Event
	reg                                        *obs.Registry
	tracer                                     *obs.TraceBuilder
	cRequests, cAdmShed, cUnroutable, cBatches *obs.Counter
	hBatch                                     *obs.Histogram
	cDispatch                                  []*obs.Counter
	chipNames                                  []string
	// Attribution (DESIGN.md §14): a front-door ledger indexed like the
	// input plus the chip/position links resolved at dispatch.
	frontLed          *obs.Ledger
	linkChip, linkPos []int32
}

// setup validates the configuration and the request stream and builds
// the run's state. Configuration errors come first, then the first
// malformed request in input order, then duplicate IDs.
func (f *frontEnd) setup(cfg Config, reqs []workload.Request) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("cluster: no requests")
	}
	f.cfg, f.reqs = cfg, reqs
	policy := cfg.Policy
	if policy == "" {
		policy = "least-work"
	}
	var err error
	if f.balancer, err = NewBalancer(policy); err != nil {
		return err
	}
	if f.admission, err = newAdmissionState(cfg.Admission); err != nil {
		return err
	}
	f.health = make([]*healthSteps, cfg.Chips)
	for i := range f.health {
		if cfg.Faults != nil {
			if f.health[i], err = healthStepsOf(cfg.Faults[i]); err != nil {
				return err
			}
		}
	}
	f.totalSub = cfg.System.Cfg.NumSubarrays()
	f.iso = make(map[string]float64, len(cfg.System.Programs))
	//det:mapiter-ok independent per-key writes into another map
	for name, p := range cfg.System.Programs {
		f.iso[name] = cfg.System.Cfg.Seconds(p.Table(f.totalSub).TotalCycles)
	}

	f.out = &Outcome{
		Finishes:   make([]float64, len(reqs)),
		Latency:    make([]float64, len(reqs)),
		Dispatched: make([]int, cfg.Chips),
	}
	f.instrument()
	if err := f.scan(); err != nil {
		return err
	}

	f.batching = cfg.BatchWindow > 0
	f.maxBatch = cfg.MaxBatch
	if f.maxBatch <= 0 {
		f.maxBatch = int(math.MaxInt32)
	}
	f.alpha = cfg.BatchAlpha
	switch {
	case f.alpha == 0:
		f.alpha = DefaultBatchAlpha
	case f.alpha < 0:
		f.alpha = 0
	}

	// Without batching every admit is its own dispatch group, so the
	// record count is known up front.
	dispCap := 0
	if !f.batching {
		dispCap = len(reqs)
	}
	f.admits = grow(f.admits, len(reqs))
	f.dispatches = grow(f.dispatches, dispCap)
	f.memberArena = grow(f.memberArena, len(reqs))
	if f.asc != nil {
		f.ends = grow(f.ends, dispCap)
	}
	if cfg.Trace != nil {
		f.events = grow(f.events, 2*len(reqs))
	}
	f.openList = make([]*openBatch, 0, 8)
	f.chipCounts = make([]int, cfg.Chips)
	f.busyUntil = make([]float64, cfg.Chips)
	f.views = make([]ChipView, cfg.Chips)
	return nil
}

// instrument resolves the run's observability handles once, in a fixed
// registration order, builds the autoscaler (its counters register
// after the front door's), and opens the attribution ledger when
// Config.Attrib is on.
func (f *frontEnd) instrument() {
	cfg := &f.cfg
	f.reg, f.tracer = cfg.Obs.Registry(), cfg.Obs.Tracer()
	f.cRequests = f.reg.Counter("cluster_requests_total")
	f.cAdmShed = f.reg.Counter("cluster_admission_shed_total")
	f.cUnroutable = f.reg.Counter("cluster_unroutable_shed_total")
	f.cBatches = f.reg.Counter("cluster_batches_total")
	f.hBatch = f.reg.Histogram("cluster_batch_size", []float64{1, 2, 4, 8, 16, 32})
	f.cDispatch = make([]*obs.Counter, cfg.Chips)
	for i := range f.cDispatch {
		f.cDispatch[i] = f.reg.Counter("cluster_dispatch_total", obs.L("chip", fmt.Sprintf("%02d", i)))
	}
	if f.tracer != nil {
		// Backlog counter track names, rendered once instead of per dispatch.
		f.chipNames = make([]string, cfg.Chips)
		for i := range f.chipNames {
			f.chipNames[i] = fmt.Sprintf("chip %02d", i)
		}
	}
	if cfg.Scale != nil {
		f.asc = newAutoscaler(cfg.Scale, cfg.Chips, f.reg)
		f.out.Fleet = f.asc.fleet
	}
	if cfg.Attrib {
		n := len(f.reqs)
		f.frontLed = obs.NewLedger(n)
		f.linkChip, f.linkPos = make([]int32, n), make([]int32, n)
		for i := range f.linkChip {
			f.linkChip[i], f.linkPos[i] = -1, -1
		}
	}
}

// scan is the entry pass over the request stream. It validates every
// request with sim.ValidateRequest — the check each chip's Node.Run
// makes too, but here naming the input position — rejects duplicate
// IDs, marks every request not-yet-completed, finds the earliest
// arrival, and fixes the admission walk order: arrival order with ties
// by input index, which for the generator's already-sorted streams is
// the input order itself (order stays nil). IDs equal to input
// positions, what workload.Generate emits, are unique by construction
// and skip the duplicate map.
func (f *frontEnd) scan() error {
	reqs := f.reqs
	identityIDs, arrivalsSorted := true, true
	f.firstArrival = math.Inf(1)
	prevArr := math.Inf(-1)
	for i := range reqs {
		r := &reqs[i]
		if err := sim.ValidateRequest(i, r); err != nil {
			return err
		}
		if r.ID != i {
			identityIDs = false
		}
		if r.Arrival < prevArr {
			arrivalsSorted = false
		}
		prevArr = r.Arrival
		if r.Arrival < f.firstArrival {
			f.firstArrival = r.Arrival
		}
		f.out.Finishes[i] = -1
	}
	if !identityIDs {
		seen := make(map[int]bool, len(reqs))
		for i := range reqs {
			if seen[reqs[i].ID] {
				return fmt.Errorf("cluster: duplicate request ID %d", reqs[i].ID)
			}
			seen[reqs[i].ID] = true
		}
	}
	if !arrivalsSorted {
		f.order = make([]int, len(reqs))
		for i := range f.order {
			f.order[i] = i
		}
		sort.SliceStable(f.order, func(a, b int) bool {
			return reqs[f.order[a]].Arrival < reqs[f.order[b]].Arrival
		})
	}
	return nil
}

// admit is stage 1: every request, in admission walk order, passes its
// QoS level's token bucket or sheds. Admission delays reorder admits
// only when buckets queue; the common no-queue run is already sorted
// and skips the re-sort.
func (f *frontEnd) admit() {
	for k := range f.reqs {
		idx := k
		if f.order != nil {
			idx = f.order[k]
		}
		f.admitOne(idx)
	}
	for i := 1; i < len(f.admits); i++ {
		if f.admits[i].at < f.admits[i-1].at {
			sort.SliceStable(f.admits, func(a, b int) bool { return f.admits[a].at < f.admits[b].at })
			break
		}
	}
}

// admitOne runs one request through admission.
//
//perf:hot per-request admission: bucket, ledger stamps and the admit record without allocating (DESIGN.md §13)
func (f *frontEnd) admitOne(idx int) {
	r := &f.reqs[idx]
	if f.cfg.Trace != nil {
		f.events = append(f.events, sim.Event{Time: r.Arrival, Kind: sim.EvArrival, Task: r.ID, Model: r.Model})
	}
	f.cRequests.Inc()
	if f.frontLed != nil {
		f.frontLed.Open(idx, r.Arrival, obs.PhaseAdmitWait)
	}
	// With no admission control configured the answer is always
	// (arrival, true); the nil check saves a non-inlined call per request.
	at, ok := r.Arrival, true
	if f.admission != nil {
		at, ok = f.admission.admit(r.Level, r.Arrival)
	}
	if !ok {
		if f.cfg.Trace != nil {
			f.events = append(f.events, sim.Event{Time: r.Arrival, Kind: sim.EvShed, Task: r.ID, Model: r.Model})
		}
		f.cAdmShed.Inc()
		f.out.ShedFront++
		if f.frontLed != nil {
			f.frontLed.Close(idx, r.Arrival, obs.CauseShedAdmission)
		}
		return
	}
	if f.frontLed != nil {
		// Admission grant: [arrival, at] was admit-wait, [at, dispatch]
		// is batch-wait (zero-length when batching is off).
		f.frontLed.Mark(idx, at, obs.PhaseBatchWait)
	}
	f.admits = append(f.admits, admitted{at: at, idx: int32(idx), model: int32(f.internModel(r.Model))})
}

// internModel returns the model's interned ID. The handful of models
// makes a linear scan with string equality's pointer fast path cheaper
// than hashing.
func (f *frontEnd) internModel(name string) int {
	for i, m := range f.modelNames {
		if m == name {
			return i
		}
	}
	f.modelNames = append(f.modelNames, name)
	f.isoByID = append(f.isoByID, f.iso[name])
	return len(f.modelNames) - 1
}

// walk is stages 2 and 3: batching windows and balanced dispatch in one
// chronological pass over the admits. Windows open in admit order, so
// the window FIFO is already sorted by close time. On autoscaled runs
// the control instants interleave with the walk in simulated time order:
// batch windows close up to the tick first, so the controller sees (and
// drains reassign) exactly the state a real front door would have at
// that instant.
//
//perf:hot cluster front-end steady state: batch and dispatch per admit without allocating (DESIGN.md §13)
func (f *frontEnd) walk() {
	for _, a := range f.admits {
		if f.asc != nil {
			for a.at >= f.asc.nextTick {
				tk := f.asc.nextTick
				f.asc.nextTick += f.asc.cfg.IntervalS
				f.flush(tk)
				f.controlTick(tk)
			}
			f.asc.noteWait(a.at - f.reqs[a.idx].Arrival)
		}
		if !f.batching {
			// Single-request group: a one-element capped sub-slice of the
			// arena, no per-request allocation.
			f.memberArena = append(f.memberArena, int(a.idx))
			n := len(f.memberArena)
			f.dispatch(a.at, f.memberArena[n-1:n:n], int(a.model))
			continue
		}
		model := int(a.model)
		f.flush(a.at)
		b := f.findOpen(model)
		if b == nil {
			b = f.newBatch(model, a.at+f.cfg.BatchWindow)
			f.openList = append(f.openList, b)
			f.queue = append(f.queue, b)
		}
		b.members = append(b.members, int(a.idx))
		if len(b.members) >= f.maxBatch {
			b.closed = true
			f.removeOpen(b)
			f.dispatch(a.at, f.takeMembers(b.members), b.model)
		}
	}
	f.flush(math.Inf(1))
	if f.out.Batches > 0 {
		f.out.MeanBatchSize = float64(f.membersTotal) / float64(f.out.Batches)
	}
}

// fillViews snapshots every chip for a pick at instant t: health from
// its fault timeline, routability from the autoscaler, and the clamped
// estimated backlog. asc.routable promotes a finished boot on read for
// every chip, healthy or not; that is harmless, because asc.counts(T)
// promotes every due slot before any controller or drain reads slot
// states, and pick instants never run backwards.
func (f *frontEnd) fillViews(t float64) {
	for i := range f.views {
		outst := f.busyUntil[i] - t
		if outst < 0 {
			outst = 0
		}
		healthy := f.health[i].aliveAt(t, f.totalSub) > 0
		if f.asc != nil && !f.asc.routable(i, t) {
			healthy = false
		}
		f.views[i] = ChipView{Index: i, Healthy: healthy, Outstanding: outst}
	}
}

// dispatch routes one group — a lone request or a closed batch — at
// instant tD: it merges the members into one chip request (tightest
// deadline, highest priority, fused work), picks a chip, and records
// the routing for the layout stage, or sheds every member when no chip
// is routable.
//
//perf:hot per-dispatch routing: merge, pick and record a group without allocating (DESIGN.md §13)
func (f *frontEnd) dispatch(tD float64, members []int, model int) {
	leader := &f.reqs[members[0]]
	k := len(members)
	mw := leader.Work // validated finite and >= 0; 0 means 1
	if mw == 0 {
		mw = 1
	}
	// The merged request exists only as scalars here: layout rebuilds the
	// dispatched Request from the leader plus these values.
	at, deadline, qos := leader.Arrival, leader.Deadline, leader.QoS
	prio, work := leader.Priority, leader.Work
	if k > 1 || tD != leader.Arrival {
		at = tD
		for _, m := range members[1:] {
			r := &f.reqs[m]
			if r.Deadline < deadline {
				deadline = r.Deadline
			}
			if r.Priority > prio {
				prio = r.Priority
			}
		}
		qos = deadline - tD
		if k > 1 {
			mw *= 1 + f.alpha*float64(k-1)
			work = mw
		}
	}
	if f.batching {
		if f.cfg.Trace != nil {
			f.events = append(f.events, sim.Event{Time: tD, Kind: sim.EvBatch, Task: leader.ID, Model: leader.Model, Alloc: k})
		}
		f.cBatches.Inc()
		f.hBatch.Observe(float64(k))
		if f.tracer != nil && k > 1 {
			f.tracer.Span("cluster/batches", fmt.Sprintf("%s x%d", leader.Model, k),
				leader.Arrival, tD,
				obs.Str("model", leader.Model), obs.Num("size", float64(k)))
		}
	}
	f.fillViews(tD)
	chip := f.balancer.Pick(leader.Model, tD, f.views)
	if chip < 0 {
		for _, m := range members {
			if f.cfg.Trace != nil {
				r := &f.reqs[m]
				f.events = append(f.events, sim.Event{Time: tD, Kind: sim.EvShed, Task: r.ID, Model: r.Model})
			}
			f.cUnroutable.Inc()
			f.out.ShedFront++
			if f.frontLed != nil {
				f.frontLed.Close(m, tD, obs.CauseShedUnroutable)
			}
		}
		return
	}
	if f.cfg.Trace != nil {
		f.events = append(f.events, sim.Event{Time: tD, Kind: sim.EvDispatch, Task: leader.ID, Model: leader.Model, Unit: chip})
	}
	f.cDispatch[chip].Inc()
	cost := f.isoByID[model] * mw
	f.busyUntil[chip] = math.Max(f.busyUntil[chip], tD) + cost
	if f.tracer != nil {
		f.tracer.Counter("cluster/backlog", f.chipNames[chip], tD, f.busyUntil[chip]-tD)
	}
	f.out.Dispatched[chip]++
	f.out.Batches++
	f.membersTotal += k
	if k > 1 {
		f.out.BatchedReqs += k
	}
	if f.frontLed != nil {
		// Hand-off: each member's front record closes at the merged
		// arrival `at` (== the chip record's Open instant, bit-exact),
		// and the links remember which chip record continues it.
		for _, m := range members {
			f.frontLed.Close(m, at, obs.CauseDispatched)
			f.linkChip[m] = int32(chip)
			f.linkPos[m] = int32(f.chipCounts[chip])
		}
	}
	if f.asc != nil {
		// Drain bookkeeping (autoscaled runs only): the estimated
		// completion instant and the slot's pending-group queue let a
		// later drain split in-flight from queued work without replaying
		// the dispatch walk.
		f.ends = append(f.ends, f.busyUntil[chip])
		f.asc.slots[chip].pend = append(f.asc.slots[chip].pend, int32(len(f.dispatches)))
	}
	f.dispatches = append(f.dispatches, dispatchRec{
		chip: chip, pos: f.chipCounts[chip], cost: cost, members: members,
		at: at, deadline: deadline, qos: qos,
		prio: prio, work: work,
	})
	f.chipCounts[chip]++
}

// takeMembers copies a closed window's members into the member arena.
// Every dispatch group's member list is carved out of that one arena
// (each admit joins at most one group, so len(admits) bounds the total),
// so the window records themselves recycle through the free list.
func (f *frontEnd) takeMembers(members []int) []int {
	start := len(f.memberArena)
	f.memberArena = append(f.memberArena, members...)
	return f.memberArena[start:len(f.memberArena):len(f.memberArena)]
}

// newBatch opens a window, recycling one from the free list when it can.
func (f *frontEnd) newBatch(model int, closeAt float64) *openBatch {
	if n := len(f.batchPool); n > 0 {
		b := f.batchPool[n-1]
		f.batchPool = f.batchPool[:n-1]
		b.model, b.closeAt, b.closed = model, closeAt, false
		b.members = b.members[:0]
		return b
	}
	//perf:alloc-ok batch-object miss path; steady state recycles via batchPool above
	return &openBatch{model: model, closeAt: closeAt, members: make([]int, 0, min(f.maxBatch, 8))}
}

// findOpen returns the model's open window, or nil. The handful of
// concurrently open windows lives in a small list: a linear scan beats
// per-admit string hashing, and there is no map to iterate.
func (f *frontEnd) findOpen(model int) *openBatch {
	for _, b := range f.openList {
		if b.model == model {
			return b
		}
	}
	return nil
}

// removeOpen drops b from the open-window list.
func (f *frontEnd) removeOpen(b *openBatch) {
	for i, x := range f.openList {
		if x == b {
			f.openList = append(f.openList[:i], f.openList[i+1:]...)
			return
		}
	}
}

// flush dispatches every window due to close by until, in close order.
// The window FIFO advances by head index, not by re-slicing: a
// queue[1:] walk marches the append head off the backing array and
// allocates a fresh tiny slice per window. Draining rewinds to the
// front, and in-place compaction bounds the backing at the open-window
// high-water mark; both preserve FIFO order exactly.
func (f *frontEnd) flush(until float64) {
	for f.qHead < len(f.queue) {
		b := f.queue[f.qHead]
		if b.closed {
			f.qHead++
			f.batchPool = append(f.batchPool, b)
			continue
		}
		if simtime.After(b.closeAt, until) {
			if f.qHead > 64 && 2*f.qHead >= len(f.queue) {
				n := copy(f.queue, f.queue[f.qHead:])
				f.queue = f.queue[:n]
				f.qHead = 0
			}
			return
		}
		f.qHead++
		f.removeOpen(b)
		f.dispatch(b.closeAt, f.takeMembers(b.members), b.model)
		f.batchPool = append(f.batchPool, b)
	}
	f.queue, f.qHead = f.queue[:0], 0
}

// controlTick runs the scale controller at control instant T and moves
// the fleet toward its answer: boots up to it, or drains ready slots
// down to it. It runs inside the same single-goroutine walk as
// dispatch, so a fault landing on a draining chip, a flash crowd
// mid-drain, or a drain racing permanent chip death all resolve in one
// deterministic time order.
func (f *frontEnd) controlTick(T float64) {
	asc := f.asc
	active, booting, draining := asc.counts(T)
	backlog := 0.0
	for i, busy := range f.busyUntil {
		if asc.slots[i].state != slotReady {
			continue
		}
		if w := busy - T; w > 0 {
			backlog += w
		}
	}
	want := asc.cfg.Controller.Desired(ScaleSignal{
		Time: T, Active: active, Booting: booting, Draining: draining,
		BacklogS: backlog, MaxWaitS: asc.debtMax, Arrivals: asc.arrivals,
	})
	want = max(asc.cfg.Min, min(want, asc.chips))
	eff := active + booting
	for eff < want {
		c := asc.bootOne(T)
		if c < 0 {
			break
		}
		if f.cfg.Trace != nil {
			f.events = append(f.events, sim.Event{Time: T, Kind: sim.EvScaleUp, Unit: c})
		}
		eff++
	}
	// Scale-down drains ready slots only — boots in flight are never
	// cancelled — and stops at the Min floor.
	for eff > want && active > asc.cfg.Min {
		c := asc.drainCandidate(T, f.busyUntil)
		if c < 0 {
			break
		}
		f.drainChip(c, T)
		eff--
		active--
	}
	asc.debtMax, asc.arrivals = 0, 0
}

// drainChip retires slot c gracefully at control instant T. In-flight
// groups (estimated started before T) stay and finish; queued groups
// migrate to the chip least-work would pick over the same views
// dispatch uses — the draining slot is no longer routable, so the pick
// never returns c — or shed as ShedDrain when no routable chip remains.
func (f *frontEnd) drainChip(c int, T float64) {
	asc := f.asc
	s := &asc.slots[c]
	s.state = slotDraining
	asc.cDrains.Inc()
	asc.fleet.Note(T, c, obs.FleetDrain)
	if f.cfg.Trace != nil {
		f.events = append(f.events, sim.Event{Time: T, Kind: sim.EvDrain, Unit: c})
	}
	pend := s.pend
	// Skip groups already estimated finished, then keep the in-flight
	// prefix: the slot retires when the last of them is estimated done.
	i := 0
	for i < len(pend) && f.ends[pend[i]] <= T {
		i++
	}
	retire := T
	for ; i < len(pend); i++ {
		di := pend[i]
		if f.ends[di]-f.dispatches[di].cost >= T {
			break
		}
		retire = f.ends[di]
	}
	// Everything behind the in-flight prefix is queued work the slot
	// abandons. The abandoned groups are the trailing positions of the
	// slot's request slice, so decrementing the count keeps per-chip
	// positions dense.
	for _, di := range pend[i:] {
		d := f.dispatches[di]
		f.fillViews(T)
		target := leastWork{}.Pick("", T, f.views)
		f.out.Dispatched[c]--
		f.chipCounts[c]--
		if target < 0 {
			f.dispatches[di].chip = -1 // tombstone: shed during drain
			f.out.Batches--
			f.membersTotal -= len(d.members)
			f.out.ShedDrain += len(d.members)
			for _, m := range d.members {
				asc.cDrainShed.Inc()
				if f.cfg.Trace != nil {
					r := &f.reqs[m]
					f.events = append(f.events, sim.Event{Time: T, Kind: sim.EvShed, Task: r.ID, Model: r.Model})
				}
				if f.frontLed != nil {
					f.frontLed.Reopen(m, obs.PhaseDrainMigrate)
					f.frontLed.Close(m, T, obs.CauseShedDrain)
					f.linkChip[m], f.linkPos[m] = -1, -1
				}
			}
			continue
		}
		f.busyUntil[target] = math.Max(f.busyUntil[target], T) + d.cost
		newPos := f.chipCounts[target]
		f.chipCounts[target]++
		f.out.Dispatched[target]++
		f.out.Migrated += len(d.members)
		asc.cMigrated.Inc()
		if f.cfg.Trace != nil {
			leader := &f.reqs[d.members[0]]
			f.events = append(f.events, sim.Event{Time: T, Kind: sim.EvMigrate,
				Task: leader.ID, Model: leader.Model, Unit: target, Depth: c})
		}
		if f.frontLed != nil {
			for _, m := range d.members {
				f.frontLed.Reopen(m, obs.PhaseDrainMigrate)
				f.frontLed.Close(m, T, obs.CauseDispatched)
				f.linkChip[m], f.linkPos[m] = int32(target), int32(newPos)
			}
		}
		f.ends = append(f.ends, f.busyUntil[target])
		asc.slots[target].pend = append(asc.slots[target].pend, int32(len(f.dispatches)))
		nd := d
		nd.chip, nd.pos, nd.at = target, newPos, T
		nd.qos = nd.deadline - T
		f.dispatches = append(f.dispatches, nd)
		f.dispatches[di].chip = -2 // migrated away: the appended copy serves its members
	}
	s.pend = pend[:0]
	s.retireAt = retire
	f.busyUntil[c] = retire
	asc.fleet.Note(retire, c, obs.FleetRetire)
	asc.cDown.Inc()
	if f.cfg.Trace != nil {
		f.retires = append(f.retires, sim.Event{Time: retire, Kind: sim.EvScaleDown, Unit: c})
	}
}

// layout is the second half of dispatch: it lays the routed groups out
// per chip. The backing array escapes into ChipResult.Requests, so it
// is a real allocation — but exactly one, exactly sized. Capacities are
// capped (three-index slices) so a caller appending to one chip's
// Requests reallocates instead of clobbering its neighbour. Each merged
// request is rebuilt in place from its leader plus the scalars the
// dispatchRec captured. On autoscaled runs drain tombstones and
// migrated-away originals occupy no slot.
func (f *frontEnd) layout() [][]workload.Request {
	perChip := make([][]workload.Request, f.cfg.Chips)
	offs := make([]int, f.cfg.Chips)
	off := 0
	for i, n := range f.chipCounts {
		offs[i] = off
		off += n
	}
	backing := make([]workload.Request, off)
	for i, n := range f.chipCounts {
		perChip[i] = backing[offs[i] : offs[i]+n : offs[i]+n]
	}
	for i := range f.dispatches {
		d := &f.dispatches[i]
		if d.chip < 0 {
			continue
		}
		m := &backing[offs[d.chip]+d.pos]
		*m = f.reqs[d.members[0]]
		m.Arrival, m.Deadline, m.QoS = d.at, d.deadline, d.qos
		m.Priority, m.Work = d.prio, d.work
	}
	return perChip
}

// runChips is stage 4: one shard (goroutine) per chip, since each chip
// is one long independent simulation and the chip count is small.
// Writes stay confined to index i; merge walks dispatch records in
// virtual-time order, so the aggregate is deterministic no matter how
// the shards interleave.
func (f *frontEnd) runChips(perChip [][]workload.Request) error {
	cfg := &f.cfg
	results := make([]*ChipResult, cfg.Chips)
	errs := make([]error, cfg.Chips)
	par.PerItem(cfg.Chips, func(i int) {
		cr := &ChipResult{Requests: perChip[i]}
		results[i] = cr
		if cfg.ChipTraces {
			cr.Trace = &sim.Trace{}
		}
		if cfg.Observe {
			cr.Obs = obs.New()
		}
		if cfg.Attrib {
			cr.Attrib = obs.NewLedger(len(perChip[i]))
			cr.Occ = obs.NewOccupancy(int64(f.totalSub))
		}
		if len(perChip[i]) == 0 {
			return
		}
		pol := cfg.System.NewPolicy()
		if ob, ok := pol.(obs.Observable); ok && cr.Obs != nil {
			ob.SetObserver(cr.Obs)
		}
		if oa, ok := pol.(obs.OccupancyAware); ok && cr.Occ != nil {
			oa.SetOccupancy(cr.Occ)
		}
		node := &sim.Node{
			Cfg:       cfg.System.Cfg,
			Policy:    pol,
			Programs:  cfg.System.Programs,
			Params:    cfg.System.Params,
			Trace:     cr.Trace,
			Obs:       cr.Obs,
			Attrib:    cr.Attrib,
			Occ:       cr.Occ,
			FaultMode: cfg.FaultMode,
			Shed:      cfg.Shed,
		}
		if cfg.Faults != nil && cfg.Faults[i] != nil {
			node.Faults, errs[i] = fault.NewInjector(cfg.Faults[i])
			if errs[i] != nil {
				return
			}
		}
		cr.Outcome, errs[i] = node.Run(perChip[i])
	})
	if err := par.FirstError(errs); err != nil {
		return err
	}
	f.out.PerChip = results
	if f.frontLed != nil {
		f.out.Attrib = &Attribution{Front: f.frontLed, Chip: f.linkChip, Pos: f.linkPos}
	}
	return nil
}

// merge is stage 5: chip outcomes fan back out onto the original
// stream. The latency histogram handles are interned per model as they
// are first needed, in merge order.
func (f *frontEnd) merge() {
	out, reqs := f.out, f.reqs
	var latHists map[string]*obs.Histogram
	var durBounds []float64
	if f.reg != nil {
		latHists = make(map[string]*obs.Histogram, len(f.cfg.System.Programs))
		durBounds = obs.DurationBuckets()
	}
	for i := range f.dispatches {
		d := &f.dispatches[i]
		if d.chip < 0 {
			continue // drain tombstone or migrated-away original
		}
		fin := out.PerChip[d.chip].Outcome.Finishes[d.pos]
		for _, m := range d.members {
			r := &reqs[m]
			if fin >= 0 {
				out.Finishes[m] = fin
				out.Latency[m] = fin - r.Arrival
				out.Completed++
				if f.reg != nil {
					h := latHists[r.Model]
					if h == nil {
						h = f.reg.Histogram("cluster_latency_seconds", durBounds, obs.L("model", r.Model))
						latHists[r.Model] = h
					}
					h.Observe(out.Latency[m])
				}
			} else if _, ok := f.cfg.System.Programs[r.Model]; !ok {
				out.Rejected++
			} else {
				out.ShedChips++
			}
		}
	}
	lastFinish := math.Inf(-1)
	for _, fin := range out.Finishes {
		if fin > lastFinish {
			lastFinish = fin
		}
	}
	if lastFinish > f.firstArrival {
		out.Makespan = lastFinish - f.firstArrival
	}
	for _, cr := range out.PerChip {
		if cr.Outcome == nil {
			continue
		}
		out.EnergyJ += cr.Outcome.EnergyJ
		out.Killed += cr.Outcome.Killed
		out.Retries += cr.Outcome.Retries
		out.FaultEvents += cr.Outcome.FaultEvents
	}
	out.MeetsSLA, out.DeadlineFrac = workload.SLAOutcome(reqs, out.Finishes)
}

// export appends the front-door timeline to Config.Trace in stable time
// order. Stage 1 records before dispatch starts, so the event buffer
// holds arrivals and admission sheds ahead of the dispatch-time events,
// and the future-dated retires follow both: on a time tie an arrival
// precedes a dispatch-time event, which precedes a retire — even a
// retire recorded before a same-instant drain.
func (f *frontEnd) export() {
	tr := f.cfg.Trace
	if tr == nil {
		return
	}
	n := len(tr.Events)
	tr.Reserve(len(f.events) + len(f.retires))
	tr.Events = append(tr.Events, f.events...)
	tr.Events = append(tr.Events, f.retires...)
	tail := tr.Events[n:]
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].Time < tail[j].Time })
}
