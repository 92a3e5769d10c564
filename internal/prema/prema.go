// Package prema reimplements the PREMA scheduling baseline (Choi & Rhu,
// HPCA 2020) the paper compares against: preemptive *temporal*
// multi-tenancy on a monolithic systolic accelerator. PREMA's published
// policy is token-based: each waiting task accrues tokens proportionally
// to its priority and waiting time; tasks whose token reaches the current
// maximum become candidates, and among candidates the one with the
// shortest estimated remaining time runs next (shortest-estimated-job
// first, for throughput). Preemption checkpoints at tile granularity.
//
// This is a reimplementation from the published description — the paper's
// artifact is not available — preserving the policy semantics the
// comparison needs (see DESIGN.md §3).
package prema

import (
	"fmt"

	"planaria/internal/arch"
	"planaria/internal/obs"
	"planaria/internal/sim"
)

// Token is the PREMA scheduling policy. It is stateful: tokens persist
// across invocations and grow while tasks wait.
type Token struct {
	Cfg arch.Config
	// CandidateFraction: tasks with token ≥ CandidateFraction × max-token
	// are candidates (1.0 = strict maximum only).
	CandidateFraction float64
	// SchedulingQuantum bounds how long a decision stands before tokens
	// are re-evaluated.
	SchedulingQuantum float64

	// state holds each queued task's token in a slice indexed by the
	// task's input position (sim.Task.Pos) modulo its power-of-two
	// length, which stays at least the span of positions in one
	// decision, so no two queued tasks share a slot and the table stays
	// as small as the queue's window of the stream. An entry is live
	// only if the immediately preceding decision round stamped it for
	// the same position: a task absent from one decision has left
	// (retired, shed, or waiting out a retry backoff) and rejoins with a
	// fresh token, while a killed task that rejoins before the next
	// decision keeps its own.
	state []taskToken
	// round counts decisions; state entries carry the round that last
	// stamped them.
	round uint64

	// Observability probes (nil-safe no-ops when unset).
	cDecisions *obs.Counter
	cSwitches  *obs.Counter
	gMaxToken  *obs.Gauge
	tracer     *obs.TraceBuilder
	dispatched int
	haveDisp   bool
}

// taskToken is one task's accrued token, the instant it was last
// accrued, and the decision round and task position that last stamped
// it.
type taskToken struct {
	token, last float64
	round       uint64
	pos         int
}

// NewToken returns the PREMA policy with the defaults used in the
// evaluation: a 90% candidate threshold and a 500 µs quantum.
func NewToken(cfg arch.Config) *Token {
	return &Token{
		Cfg:               cfg,
		CandidateFraction: 0.9,
		SchedulingQuantum: 500e-6,
	}
}

// Name implements sim.Policy.
func (p *Token) Name() string { return "PREMA" }

// SetObserver implements obs.Observable: decision counters, the
// dispatch-switch count (temporal context switches), and the token
// high-water mark land in the registry; dispatch switches also appear as
// instants on the "prema" timeline track.
func (p *Token) SetObserver(o *obs.Observer) {
	reg := o.Registry()
	p.cDecisions = reg.Counter("prema_decisions_total")
	p.cSwitches = reg.Counter("prema_dispatch_switches_total")
	p.gMaxToken = reg.Gauge("prema_max_token")
	p.tracer = o.Tracer()
}

// Quantum implements sim.Policy.
func (p *Token) Quantum() float64 { return p.SchedulingQuantum }

// SetHealth implements sim.HealthAware as a no-op. The monolithic array
// cannot re-fission around dead subarrays, so its only degradation is a
// uniform throughput derate by the alive fraction, which the serving
// engine applies (sim.FaultDerate). A uniform derate scales every
// task's remaining time alike and leaves the shortest-estimated-job
// ordering, and so every decision, unchanged.
func (p *Token) SetHealth(arch.HealthMask) {}

// Allocate implements sim.Policy: exactly one task owns the whole
// monolithic accelerator at a time.
func (p *Token) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	if len(tasks) == 0 {
		return nil
	}
	return map[int]int{tasks[p.decide(now, tasks, total)].ID: total}
}

// AllocateInto implements sim.SliceAllocator (same decision, no result
// map; the token state persists on the policy either way).
func (p *Token) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	if len(tasks) == 0 {
		return
	}
	dst[p.decide(now, tasks, total)] = total
}

// decide runs one token-policy round — accrual, candidate filtering,
// shortest-estimated-job tie-break — and returns the position of the
// dispatched task, mutating the token state.
func (p *Token) decide(now float64, tasks []*sim.Task, total int) int {
	lo, hi := tasks[0].Pos(), tasks[0].Pos()
	for _, t := range tasks[1:] {
		lo, hi = min(lo, t.Pos()), max(hi, t.Pos())
	}
	prev := p.round
	if span := hi - lo + 1; span > len(p.state) {
		p.grow(span, prev)
	}
	p.round++

	// Accrue tokens: priority × waiting time (milliseconds) since the
	// last update; running tasks do not accrue.
	for _, t := range tasks {
		st := p.slot(t.Pos())
		if st.round == 0 || st.round != prev || st.pos != t.Pos() {
			// Not in the previous decision: the initial token equals
			// the priority, as in PREMA.
			*st = taskToken{token: float64(t.Req.Priority), last: now, round: p.round, pos: t.Pos()}
			continue
		}
		if t.Alloc == 0 {
			st.token += float64(t.Req.Priority) * (now - st.last) * 1e3
		}
		st.last, st.round = now, p.round
	}

	// Candidate set: tokens within CandidateFraction of the maximum.
	maxTok := 0.0
	for _, t := range tasks {
		if tok := p.slot(t.Pos()).token; tok > maxTok {
			maxTok = tok
		}
	}
	best := -1
	bestRem := int64(0)
	for i, t := range tasks {
		if p.slot(t.Pos()).token < p.CandidateFraction*maxTok {
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
	bt := tasks[best]
	p.cDecisions.Inc()
	p.gMaxToken.Max(maxTok)
	if !p.haveDisp || p.dispatched != bt.ID {
		if p.haveDisp {
			p.cSwitches.Inc()
			if p.tracer != nil {
				p.tracer.Instant("prema", fmt.Sprintf("dispatch task %d", bt.ID), now,
					obs.Str("model", bt.Req.Model),
					obs.Num("token", p.slot(bt.Pos()).token),
					obs.Num("max_token", maxTok))
			}
		}
		p.dispatched, p.haveDisp = bt.ID, true
	}
	// The dispatched task's token resets, as in PREMA, so others catch up.
	p.slot(bt.Pos()).token = float64(bt.Req.Priority)
	return best
}

// slot returns the token entry of the task at input position pos.
func (p *Token) slot(pos int) *taskToken {
	return &p.state[pos&(len(p.state)-1)]
}

// grow resizes the token table for a decision whose positions span
// span: to the smallest power of two (at least 8) holding twice the
// span, so a queue sliding along the stream rarely resizes. Entries the
// previous round stamped move to their new slots; they spanned at most
// the old length, so they stay distinct. Older entries are dead and
// dropped.
func (p *Token) grow(span int, prev uint64) {
	n := 8
	for n < 2*span {
		n *= 2
	}
	old := p.state
	p.state = make([]taskToken, n)
	for _, e := range old {
		if e.round != 0 && e.round == prev {
			*p.slot(e.pos) = e
		}
	}
}

var _ obs.Observable = (*Token)(nil)

var _ sim.Policy = (*Token)(nil)

var _ sim.SliceAllocator = (*Token)(nil)

var _ sim.HealthAware = (*Token)(nil)

// Isolated returns the task's isolated execution time on the monolithic
// accelerator, used by the fairness metric.
func Isolated(t *sim.Task, cfg arch.Config) float64 {
	return cfg.Seconds(t.Prog.Table(cfg.NumSubarrays()).TotalCycles)
}
