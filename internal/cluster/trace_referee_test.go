package cluster

import (
	"reflect"
	"sort"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// The front end once kept its timeline in three runs — stage-1 events
// (a), dispatch-time events (b), and the future-dated retires (c) — and
// merged them at export. refFoldRetires and refExportFront are that
// merge, kept verbatim as the referee for the single stable sort that
// replaced it.

// refFoldRetires sorts the retires stably by time and merges them into
// the dispatch-time run, dispatch-time events first on ties.
func refFoldRetires(b, c []sim.Event) []sim.Event {
	if len(c) == 0 {
		return b
	}
	c = append([]sim.Event(nil), c...)
	sort.SliceStable(c, func(i, j int) bool { return c[i].Time < c[j].Time })
	merged := make([]sim.Event, 0, len(b)+len(c))
	i, j := 0, 0
	for i < len(b) && j < len(c) {
		if b[i].Time <= c[j].Time {
			merged = append(merged, b[i])
			i++
		} else {
			merged = append(merged, c[j])
			j++
		}
	}
	merged = append(merged, b[i:]...)
	return append(merged, c[j:]...)
}

// refExportFront appends runs a and b to the trace in stable time
// order: a two-pointer merge preferring a on ties, or a stable sort of
// the concatenation when either run is out of order.
func refExportFront(tr *sim.Trace, a, b []sim.Event) {
	if !refEventsOrdered(a) || !refEventsOrdered(b) {
		all := append(append([]sim.Event(nil), a...), b...)
		sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
		tr.Events = append(tr.Events, all...)
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Time <= b[j].Time {
			tr.Events = append(tr.Events, a[i])
			i++
		} else {
			tr.Events = append(tr.Events, b[j])
			j++
		}
	}
	tr.Events = append(tr.Events, a[i:]...)
	tr.Events = append(tr.Events, b[j:]...)
}

// refEventsOrdered reports whether the run's times never decrease.
func refEventsOrdered(evs []sim.Event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			return false
		}
	}
	return true
}

// frontRuns drives Run's front-end stages through the dispatch walk and
// splits the recorded timeline into the three runs the old export kept
// apart.
func frontRuns(t *testing.T, cfg Config, reqs []workload.Request) (a, b, c []sim.Event) {
	t.Helper()
	f := &frontEnd{}
	if err := f.setup(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	f.admit()
	nA := len(f.events)
	f.walk()
	return f.events[:nA], f.events[nA:], f.retires
}

// TestTraceExportMatchesReferee checks that Run's front-door trace is
// exactly the old three-run merge on traced runs that exercise every
// event source: admission sheds, batching, per-chip faults, unroutable
// sheds, scripted drains with migrations, re-boots, and two drains at
// one tick where the first has nothing in flight — its retire equals
// the tick and was recorded before the second drain.
func TestTraceExportMatchesReferee(t *testing.T) {
	sys := spatialSystem(t)
	faults := func(chips int) []*fault.Schedule {
		out := make([]*fault.Schedule, chips)
		for i := range out {
			s, err := fault.Generate(16, 4, 3000, 0.02, 0.002, int64(40+i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
		out[chips-1] = deadChip(t, 0.003)
		return out
	}
	cases := []struct {
		name      string
		reqs      []workload.Request
		cfg       func() Config
		sameTickT float64 // > 0: require two drains and a retire at this tick
	}{
		{
			name: "batched-faulted-drains",
			reqs: burstReqs(600, 100, 5, 17, 0.0025, 0.0025, 3000),
			cfg: func() Config {
				return Config{
					Chips: 4, BatchWindow: 2e-4, MaxBatch: 8,
					Faults: faults(4), FaultMode: sim.FaultFission,
					Scale: &Autoscale{
						Min: 1, Initial: 4, BootS: 0.001, IntervalS: 0.002,
						Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}, {AtS: 0.004, Chips: 4}}},
					},
				}
			},
		},
		{
			name: "migrations-no-batching",
			reqs: burstReqs(200, 50, 10, 5, 0.0, 0.01, 10000),
			cfg: func() Config {
				return Config{
					Chips: 3,
					Scale: &Autoscale{
						Min: 1, Initial: 3, IntervalS: 0.002,
						Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
					},
				}
			},
		},
		{
			name: "idle-double-drain",
			reqs: genReqs(300, 200, 1, 23),
			cfg: func() Config {
				return Config{
					Chips: 4, BatchWindow: 1e-4,
					Scale: &Autoscale{
						Min: 1, Initial: 4, IntervalS: 0.002,
						Controller: &Script{Steps: []ScaleStep{{AtS: 0.002, Chips: 2}}},
					},
				}
			},
			sameTickT: 0.002,
		},
		{
			name: "static-admission-shed-unsorted",
			reqs: func() []workload.Request {
				rs := genReqs(400, 4000, 0.01, 29)
				for i := 0; i+1 < len(rs); i += 7 {
					rs[i], rs[i+1] = rs[i+1], rs[i]
				}
				return rs
			}(),
			cfg: func() Config {
				return Config{
					Chips: 2, Policy: "round-robin", BatchWindow: 5e-4, MaxBatch: 4,
					Admission: map[string]TokenBucket{"": {Rate: 2000, Burst: 4, MaxQueue: 3}},
					Faults:    []*fault.Schedule{deadChip(t, 0.02), deadChip(t, 0.05)},
					FaultMode: sim.FaultFission,
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.System, cfg.Trace = sys, &sim.Trace{}
			a, b, c := frontRuns(t, cfg, tc.reqs)
			if !refEventsOrdered(a) || !refEventsOrdered(b) {
				t.Fatal("a front-door event run went backwards in time")
			}
			want := &sim.Trace{}
			refExportFront(want, a, refFoldRetires(b, c))

			cfg = tc.cfg()
			cfg.System, cfg.Trace = sys, &sim.Trace{}
			if _, err := Run(cfg, tc.reqs); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg.Trace.Events, want.Events) {
				t.Fatalf("front-door trace differs from the referee merge (%d vs %d events)",
					len(cfg.Trace.Events), len(want.Events))
			}

			if T := tc.sameTickT; T > 0 {
				drains, retires := 0, 0
				for _, e := range b {
					if e.Kind == sim.EvDrain && e.Time == T {
						drains++
					}
				}
				for _, e := range c {
					if e.Time == T {
						retires++
					}
				}
				if drains < 2 || retires == 0 {
					t.Fatalf("want two drains and an immediate retire at t=%g, got %d drains, %d retires", T, drains, retires)
				}
				// Every drain at the tick precedes every retire at it.
				retired := false
				for _, e := range cfg.Trace.Events {
					if e.Time != T {
						continue
					}
					switch e.Kind {
					case sim.EvScaleDown:
						retired = true
					case sim.EvDrain:
						if retired {
							t.Fatalf("drain of chip %d at t=%g exported after a same-instant retire", e.Unit, T)
						}
					}
				}
			}
		})
	}
}
