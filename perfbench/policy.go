package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"unsafe"

	"planaria/internal/arch"
	"planaria/internal/metrics"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
)

// The traced run times the scheduling layer from outside the engine: the
// benchmark hands the engine a wrapper around each real policy through
// metrics.System.NewPolicy. The engine picks its code path from the
// optional interfaces a policy implements, so a wrapper that added or
// dropped one would time a different simulation. wrapPolicy therefore
// returns a wrapper whose interface set equals the inner policy's, or an
// error when it has no wrapper shape for that set.

// Optional policy interfaces, one bit each.
const (
	capSlice  = 1 << iota // sim.SliceAllocator
	capRefis              // sim.Refissioner
	capHealth             // sim.HealthAware
	capObs                // obs.Observable
	capOcc                // obs.OccupancyAware
)

// capsOf returns the optional interfaces p implements.
func capsOf(p sim.Policy) int {
	c := 0
	if _, ok := p.(sim.SliceAllocator); ok {
		c |= capSlice
	}
	if _, ok := p.(sim.Refissioner); ok {
		c |= capRefis
	}
	if _, ok := p.(sim.HealthAware); ok {
		c |= capHealth
	}
	if _, ok := p.(obs.Observable); ok {
		c |= capObs
	}
	if _, ok := p.(obs.OccupancyAware); ok {
		c |= capOcc
	}
	return c
}

// Linux clock IDs for clock_gettime.
const (
	clockMonotonic     = 1
	clockThreadCPUTime = 3
)

// clockNs reads a Linux clock in nanoseconds.
func clockNs(id uintptr) int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// stat accumulates one layer's calls and CPU time. A call is timed by
// the CPU time of the thread it runs on, with the goroutine locked to
// that thread: the engine may run several instances concurrently
// (metrics.Evaluate starts a goroutine per instance whatever GOMAXPROCS
// is), and a wall-clock span of a call that is preempted would also take
// in the other goroutines' time slices.
type stat struct {
	calls int64
	ns    int64
}

// startCall locks the goroutine to its thread and returns the thread's
// CPU time.
func startCall() int64 {
	runtime.LockOSThread()
	return clockNs(clockThreadCPUTime)
}

// end counts one call that started at thread CPU time t0 and unlocks
// the thread.
func (s *stat) end(t0 int64) {
	s.ns += clockNs(clockThreadCPUTime) - t0
	s.calls++
	runtime.UnlockOSThread()
}

// clockCost is what the timing of one call costs: charged is the share
// of the two clock reads that falls inside the timed window, and so in
// the policy's time; wall is the whole pair, which also lands in the
// span around the engine.
type clockCost struct{ charged, wall int64 }

// calibrate measures the clock cost on empty calls. Each figure is the
// least mean over a few batches, so a batch that was preempted does not
// inflate it.
func calibrate() clockCost {
	c := clockCost{math.MaxInt64, math.MaxInt64}
	const n = 10000
	for b := 0; b < 5; b++ {
		var st stat
		w0 := clockNs(clockMonotonic)
		for i := 0; i < n; i++ {
			st.end(startCall())
		}
		c.wall = min(c.wall, (clockNs(clockMonotonic)-w0)/n)
		c.charged = min(c.charged, st.ns/n)
	}
	return c
}

// timed is the base wrapper: sim.Policy plus the per-instance counters.
// Each wrapper is used by one engine run only, so its counters need no
// lock; the recorder sums them after the runs have returned.
type timed struct {
	inner sim.Policy
	layer string // "sched.spatial", "prema" or "sched.elastic"
	alloc stat   // Allocate and AllocateInto
	next  stat   // NextRefission
}

func (t *timed) Name() string     { return t.inner.Name() }
func (t *timed) Quantum() float64 { return t.inner.Quantum() }

func (t *timed) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	t0 := startCall()
	m := t.inner.Allocate(now, tasks, total)
	t.alloc.end(t0)
	return m
}

// The forwarding pieces below are embedded into the wrapper shapes; each
// adds exactly one optional interface.

type sliceAlloc struct {
	t  *timed
	in sim.SliceAllocator
}

func (s sliceAlloc) AllocateInto(now float64, tasks []*sim.Task, total int, dst []int) {
	t0 := startCall()
	s.in.AllocateInto(now, tasks, total, dst)
	s.t.alloc.end(t0)
}

type refissioner struct {
	t  *timed
	in sim.Refissioner
}

func (r refissioner) RefissionActive() bool { return r.in.RefissionActive() }

func (r refissioner) NextRefission(now float64, tasks []*sim.Task, total int) float64 {
	t0 := startCall()
	at := r.in.NextRefission(now, tasks, total)
	r.t.next.end(t0)
	return at
}

type healthAware struct{ in sim.HealthAware }

func (h healthAware) SetHealth(mask arch.HealthMask) { h.in.SetHealth(mask) }

type observable struct{ in obs.Observable }

func (o observable) SetObserver(ob *obs.Observer) { o.in.SetObserver(ob) }

type occAware struct{ in obs.OccupancyAware }

func (o occAware) SetOccupancy(oc *obs.Occupancy) { o.in.SetOccupancy(oc) }

// The wrapper shapes, one per interface set the repository's policies
// have: sched.Spatial, prema.Token and sched.Elastic.
type (
	spatialShape struct {
		*timed
		sliceAlloc
		healthAware
		observable
		occAware
	}
	premaShape struct {
		*timed
		sliceAlloc
		healthAware
		observable
	}
	elasticShape struct {
		*timed
		sliceAlloc
		refissioner
		healthAware
		observable
		occAware
	}
)

// layerOf names the layer a policy's time is charged to.
func layerOf(p sim.Policy) (string, error) {
	switch p.(type) {
	case *sched.Spatial:
		return "sched.spatial", nil
	case *prema.Token:
		return "prema", nil
	case *sched.Elastic:
		return "sched.elastic", nil
	}
	return "", fmt.Errorf("perfbench: no layer for policy %T", p)
}

// wrapPolicy returns a timing wrapper around p with p's interface set.
func wrapPolicy(p sim.Policy) (*timed, sim.Policy, error) {
	layer, err := layerOf(p)
	if err != nil {
		return nil, nil, err
	}
	t := &timed{inner: p, layer: layer}
	switch c := capsOf(p); c {
	case capSlice | capHealth | capObs | capOcc:
		return t, spatialShape{t, sliceAlloc{t, p.(sim.SliceAllocator)}, healthAware{p.(sim.HealthAware)},
			observable{p.(obs.Observable)}, occAware{p.(obs.OccupancyAware)}}, nil
	case capSlice | capHealth | capObs:
		return t, premaShape{t, sliceAlloc{t, p.(sim.SliceAllocator)}, healthAware{p.(sim.HealthAware)},
			observable{p.(obs.Observable)}}, nil
	case capSlice | capRefis | capHealth | capObs | capOcc:
		return t, elasticShape{t, sliceAlloc{t, p.(sim.SliceAllocator)}, refissioner{t, p.(sim.Refissioner)},
			healthAware{p.(sim.HealthAware)}, observable{p.(obs.Observable)}, occAware{p.(obs.OccupancyAware)}}, nil
	default:
		return nil, nil, fmt.Errorf("perfbench: no wrapper shape for %T (interface set %05b)", p, c)
	}
}

// recorder collects the wrappers handed out during a traced run.
type recorder struct {
	mu       sync.Mutex
	wrappers []*timed
	err      error
}

// instrument returns sys with NewPolicy wrapped so that every policy the
// engine receives is timed by r. A policy that cannot be wrapped is
// handed in bare and the failure is reported by r.finish.
func (r *recorder) instrument(sys metrics.System) metrics.System {
	inner := sys.NewPolicy
	sys.NewPolicy = func() sim.Policy {
		p := inner()
		t, w, err := wrapPolicy(p)
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			if r.err == nil {
				r.err = err
			}
			return p
		}
		r.wrappers = append(r.wrappers, t)
		return w
	}
	return sys
}

// policyTotals sums the wrappers' counters.
type policyTotals struct {
	nodeRuns int
	layers   map[string]stat // policy layer → Allocate/AllocateInto totals
	next     stat            // NextRefission totals
}

// finish sums every wrapper handed out so far and resets r. Call it only
// after the engine runs that used the wrappers have returned.
func (r *recorder) finish() (policyTotals, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tot := policyTotals{nodeRuns: len(r.wrappers), layers: map[string]stat{}}
	for _, t := range r.wrappers {
		s := tot.layers[t.layer]
		s.calls += t.alloc.calls
		s.ns += t.alloc.ns
		tot.layers[t.layer] = s
		tot.next.calls += t.next.calls
		tot.next.ns += t.next.ns
	}
	err := r.err
	r.wrappers, r.err = nil, nil
	return tot, err
}
