package sim

import (
	"fmt"
	"sort"
	"strings"

	"planaria/internal/simtime"
)

// EventKind classifies trace events.
type EventKind int

const (
	// EvArrival marks a request joining the node's queue.
	EvArrival EventKind = iota
	// EvAlloc marks an allocation change decided by the scheduler
	// (Alloc = new subarray count; 0 = stalled).
	EvAlloc
	// EvFinish marks a request completing.
	EvFinish
	// EvPreempt marks a running task losing or changing its allocation
	// while unfinished (Alloc = new subarray count; 0 = fully preempted).
	// Both engines emit it: Planaria on spatial re-fission, PREMA on a
	// temporal context switch.
	EvPreempt
	// EvQueue samples the scheduler's queue occupancy after a scheduling
	// event: Depth dispatched-but-unfinished tasks, of which Running hold
	// a non-zero allocation. Recorded only when the pair changes.
	EvQueue
	// EvKill marks a running task losing its progress to an injected
	// fault (Attempt = how many times this request has now been killed).
	EvKill
	// EvRetry marks a killed task rejoining the queue after its backoff
	// (Attempt = the attempt number it resumes at).
	EvRetry
	// EvShed marks a request declined by admission control — its
	// estimated completion misses the deadline at the chip's current
	// (possibly degraded) capacity, or its retry budget is exhausted.
	EvShed
	// EvReject marks a request for a model the node has no program for
	// (non-strict mode; strict mode fails the whole run instead).
	EvReject
	// EvFault marks a fault transition applied to the chip: Unit is the
	// faulted unit index, Up distinguishes repair from landing, and Model
	// carries the fault kind name ("pe", "subarray", "link").
	EvFault
	// EvBatch marks a cluster dynamic-batching window closing: Task is
	// the batch leader's request ID, Alloc carries the batch size, Model
	// the batched model. Only cluster front-door traces contain it; chip
	// traces never do.
	EvBatch
	// EvDispatch marks the cluster balancer assigning a request (or batch
	// leader) to a chip: Unit is the chip index. Only cluster front-door
	// traces contain it.
	EvDispatch
	// EvScaleUp marks the cluster autoscaler booting a chip slot: Unit is
	// the slot index; the slot becomes routable after its boot latency.
	// Fleet events are not bound to a task. Only cluster front-door
	// traces contain the four autoscaler kinds.
	EvScaleUp
	// EvScaleDown marks a drained chip slot powering off (its in-flight
	// work finished): Unit is the slot index.
	EvScaleDown
	// EvDrain marks a chip slot beginning a graceful drain — it stops
	// admitting new work: Unit is the slot index.
	EvDrain
	// EvMigrate marks a dispatch group pulled off a draining chip and
	// re-routed: Task is the batch leader's request ID, Depth the source
	// chip, Unit the destination chip.
	EvMigrate
	// EvRefission marks an elastic re-fission: the scheduler resized a
	// task's allocation at a tile boundary — outside any arrival,
	// completion, quantum, or fault event — to absorb an arrival or grow
	// a starved task (Alloc = new subarray count). Emitted instead of
	// EvPreempt at re-fission instants; only elastic policies produce it.
	EvRefission
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvArrival:
		return "arrive"
	case EvAlloc:
		return "alloc"
	case EvFinish:
		return "finish"
	case EvPreempt:
		return "preempt"
	case EvQueue:
		return "queue"
	case EvKill:
		return "kill"
	case EvRetry:
		return "retry"
	case EvShed:
		return "shed"
	case EvReject:
		return "reject"
	case EvFault:
		return "fault"
	case EvBatch:
		return "batch"
	case EvDispatch:
		return "dispatch"
	case EvScaleUp:
		return "scale-up"
	case EvScaleDown:
		return "scale-down"
	case EvDrain:
		return "drain"
	case EvMigrate:
		return "migrate"
	case EvRefission:
		return "refission"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one timeline entry of a traced serving run.
type Event struct {
	Time  float64
	Kind  EventKind
	Task  int // request ID (unused for EvQueue)
	Model string
	Alloc int // for EvAlloc and EvPreempt
	// Depth and Running carry EvQueue's occupancy sample.
	Depth   int
	Running int
	// Unit and Up carry EvFault's transition: the faulted unit index
	// (subarray, PE-owning subarray, or pod for link faults) and whether
	// the transition is a repair.
	Unit int
	Up   bool
	// Attempt carries EvKill/EvRetry's fault-restart count.
	Attempt int
}

// Trace is a recorded serving timeline.
type Trace struct {
	Events []Event
}

// record appends an event (nil-safe: tracing is optional). Appending
// within a Reserved buffer's capacity allocates nothing — the engine
// reserves an arrival-count-based estimate up front so steady-state
// recording stays off the allocator.
func (tr *Trace) record(e Event) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, e)
}

// Reserve grows the trace's capacity so at least n more events append
// without reallocating. Nil-safe no-op, like record.
func (tr *Trace) Reserve(n int) {
	if tr == nil || n <= cap(tr.Events)-len(tr.Events) {
		return
	}
	grown := make([]Event, len(tr.Events), len(tr.Events)+n)
	copy(grown, tr.Events)
	tr.Events = grown
}

// TasksSeen returns the distinct request IDs in the trace.
func (tr *Trace) TasksSeen() []int {
	seen := map[int]bool{}
	for _, e := range tr.Events {
		switch e.Kind {
		case EvQueue, EvFault, EvScaleUp, EvScaleDown, EvDrain:
			continue // samples, faults, and fleet transitions are not bound to a task
		}
		seen[e.Task] = true
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AllocTimeline returns the (time, alloc) steps of one task.
func (tr *Trace) AllocTimeline(task int) []Event {
	var out []Event
	for _, e := range tr.Events {
		if e.Task == task && e.Kind == EvAlloc {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks trace sanity: times are non-decreasing, every task
// arrives once before any other event of its own, and finishing, shedding
// and rejection are terminal — no later event may reference the task.
func (tr *Trace) Validate() error {
	prev := -1.0
	arrived := map[int]bool{}
	finished := map[int]bool{}
	for i, e := range tr.Events {
		if simtime.After(prev, e.Time) {
			return fmt.Errorf("sim: trace time went backwards at event %d", i)
		}
		prev = e.Time
		switch e.Kind {
		case EvArrival:
			if arrived[e.Task] {
				return fmt.Errorf("sim: task %d arrived twice", e.Task)
			}
			arrived[e.Task] = true
		case EvQueue:
			if e.Depth < e.Running || e.Running < 0 {
				return fmt.Errorf("sim: queue sample depth=%d running=%d at event %d", e.Depth, e.Running, i)
			}
		case EvFault, EvScaleUp, EvScaleDown, EvDrain:
			// Not bound to a task; nothing beyond time monotonicity.
		default:
			if !arrived[e.Task] {
				return fmt.Errorf("sim: task %d %s before arrival", e.Task, e.Kind)
			}
			if finished[e.Task] {
				return fmt.Errorf("sim: task %d %s after finishing", e.Task, e.Kind)
			}
			switch e.Kind {
			case EvFinish, EvShed, EvReject:
				finished[e.Task] = true
			}
		}
	}
	return nil
}

// String renders the timeline, one event per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, e := range tr.Events {
		switch e.Kind {
		case EvAlloc, EvPreempt, EvRefission:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s -> %d subarrays\n",
				e.Time*1e3, e.Kind, e.Task, e.Model, e.Alloc)
		case EvQueue:
			fmt.Fprintf(&b, "%9.3f ms  %-7s depth %d running %d\n",
				e.Time*1e3, e.Kind, e.Depth, e.Running)
		case EvFault:
			dir := "down"
			if e.Up {
				dir = "up"
			}
			fmt.Fprintf(&b, "%9.3f ms  %-7s %s unit %d %s\n",
				e.Time*1e3, e.Kind, e.Model, e.Unit, dir)
		case EvKill, EvRetry:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s attempt %d\n",
				e.Time*1e3, e.Kind, e.Task, e.Model, e.Attempt)
		case EvBatch:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s size %d\n",
				e.Time*1e3, e.Kind, e.Task, e.Model, e.Alloc)
		case EvDispatch:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s -> chip %d\n",
				e.Time*1e3, e.Kind, e.Task, e.Model, e.Unit)
		case EvScaleUp, EvScaleDown, EvDrain:
			fmt.Fprintf(&b, "%9.3f ms  %-10s chip %d\n", e.Time*1e3, e.Kind, e.Unit)
		case EvMigrate:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s chip %d -> chip %d\n",
				e.Time*1e3, e.Kind, e.Task, e.Model, e.Depth, e.Unit)
		default:
			fmt.Fprintf(&b, "%9.3f ms  %-7s task %-3d %-16s\n",
				e.Time*1e3, e.Kind, e.Task, e.Model)
		}
	}
	return b.String()
}
