package cluster

import (
	"errors"
	"math"
	"testing"

	"planaria/internal/fault"
	"planaria/internal/metrics"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// fuzzBytes hands out the fuzz input one byte at a time; past its end,
// an xorshift generator seeded by a hash of the input keeps a short
// input describing a full-sized, varied run.
type fuzzBytes struct {
	data []byte
	x    uint64
}

func newFuzzBytes(data []byte) *fuzzBytes {
	x := uint64(0xcbf29ce484222325) // FNV-1a
	for _, c := range data {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	return &fuzzBytes{data: data, x: x | 1}
}

func (b *fuzzBytes) next() int {
	if len(b.data) > 0 {
		v := b.data[0]
		b.data = b.data[1:]
		return int(v)
	}
	b.x ^= b.x << 13
	b.x ^= b.x >> 7
	b.x ^= b.x << 17
	return int(b.x >> 56)
}

// fuzzStream decodes up to 64 requests over the toy models: arrival
// gaps that tie, step forward, or step back (unsorted input), a
// sprinkling of requests for a model no chip serves, and optionally
// non-identity IDs.
func fuzzStream(in *fuzzBytes, shuffleIDs bool) []workload.Request {
	levels := []string{"QoS-S", "QoS-M", "QoS-H"}
	qos := []float64{1e-4, 1e-3, 1e-2, 1}
	n := 1 + in.next()%64
	reqs := make([]workload.Request, n)
	at := 0.0
	for i := range reqs {
		switch g := in.next(); {
		case g < 48: // tie with the previous arrival
		case g < 80: // step back: the stream arrives unsorted
			at = math.Max(0, at-float64(g-47)*2e-5)
		default:
			at += float64(g) * 2e-6
		}
		m := in.next()
		model := toyModels[m%len(toyModels)]
		if m%16 == 15 {
			model = "no-such-model"
		}
		q := qos[in.next()%len(qos)]
		id := i
		if shuffleIDs {
			id = 1000 - 3*i
		}
		reqs[i] = workload.Request{
			ID: id, Model: model, Domain: "classification",
			Arrival: at, Priority: 1 + m%11, QoS: q, Deadline: at + q,
			Level: levels[m%len(levels)], Work: float64(in.next()%3) * 0.75,
		}
	}
	return reqs
}

// fuzzFaults draws one fault schedule per chip over the toy chips' 16
// subarrays: healthy, transient and permanent faults, or dead mid-run.
func fuzzFaults(t *testing.T, in *fuzzBytes, chips int) []*fault.Schedule {
	faults := make([]*fault.Schedule, chips)
	for i := range faults {
		switch k := in.next(); k % 3 {
		case 1:
			s, err := fault.Generate(16, 4, 500+float64(k)*20, 0.01, 0.002, int64(k))
			if err != nil {
				t.Fatal(err)
			}
			faults[i] = s
		case 2:
			s := &fault.Schedule{Units: 16, Pods: 4}
			for pod := 0; pod < s.Pods; pod++ {
				s.Events = append(s.Events, fault.Event{Time: float64(k) * 2e-5, Kind: fault.KindLink, Unit: pod})
			}
			faults[i] = s
		}
	}
	return faults
}

// FuzzClusterRun drives Run with decoded streams and configurations:
// 1–4 chips of either engine, every balancer, batching on and off with
// MaxBatch, an admission bucket, scripted autoscaling, fault schedules,
// unsorted and tied arrivals, unknown models, and malformed arrivals,
// work, priorities or deadlines. Malformed input must fail with its
// named error; anything else must serve, with every request in exactly
// one terminal tally and every chip's dispatch count matching the
// requests it holds.
func FuzzClusterRun(f *testing.F) {
	systems := []metrics.System{spatialSystem(f), premaSystem(f)}
	// Seeds: engine, chips-1, balancer, feature flags (0x01 batching,
	// 0x02 admission, 0x04 autoscaling, 0x08 faults, 0x10 local
	// shedding, 0x20 non-identity IDs, 0x80 one malformed request).
	for _, seed := range [][]byte{
		{0, 0, 0, 0x00},
		{0, 3, 1, 0x01},
		{1, 2, 2, 0x03},
		{0, 3, 0, 0x0d},
		{0, 1, 1, 0x1f},
		{1, 3, 0, 0x2d},
		{0, 2, 2, 0x3f},
		{0, 2, 2, 0x80},
		{1, 0, 1, 0x81},
		{0, 3, 1, 0x8d},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := newFuzzBytes(data)
		sys := systems[in.next()%len(systems)]
		chips := 1 + in.next()%4
		policy := Policies()[in.next()%3]
		flags := in.next()
		reqs := fuzzStream(in, flags&0x20 != 0)
		cfg := Config{System: sys, Chips: chips, Policy: policy}
		if flags&0x01 != 0 {
			cfg.BatchWindow = float64(1+in.next()) * 1e-5
			cfg.MaxBatch = in.next() % 5
		}
		if flags&0x02 != 0 {
			cfg.Admission = map[string]TokenBucket{"": {
				Rate: float64(1+in.next()) * 500, Burst: float64(1 + in.next()%4), MaxQueue: in.next() % 4,
			}}
		}
		if flags&0x04 != 0 {
			var steps []ScaleStep
			at := 0.0
			for k := in.next() % 4; k > 0; k-- {
				at += float64(1+in.next()) * 2e-5
				steps = append(steps, ScaleStep{AtS: at, Chips: 1 + in.next()%chips})
			}
			cfg.Scale = &Autoscale{
				Min: 1, Initial: 1 + in.next()%chips,
				BootS:      float64(in.next()) * 1e-5,
				IntervalS:  float64(1+in.next()) * 1e-5,
				Controller: &Script{Steps: steps},
			}
		}
		if flags&0x08 != 0 {
			cfg.FaultMode = sim.FaultFission
			if sys.Name == "PREMA" {
				cfg.FaultMode = sim.FaultDerate
			}
			cfg.Faults = fuzzFaults(t, in, chips)
		}
		if flags&0x10 != 0 {
			cfg.Shed = sim.ShedDoomed
		}
		var wantErr error
		if flags&0x80 != 0 {
			r := &reqs[in.next()%len(reqs)]
			switch in.next() % 9 {
			case 0:
				r.Arrival, wantErr = math.NaN(), sim.ErrBadArrival
			case 1:
				r.Arrival, wantErr = math.Inf(1), sim.ErrBadArrival
			case 2:
				r.Work, wantErr = -2, sim.ErrBadWork
			case 3:
				r.Work, wantErr = math.NaN(), sim.ErrBadWork
			case 4:
				r.Work, wantErr = math.Inf(-1), sim.ErrBadWork
			case 5:
				r.Priority, wantErr = 0, sim.ErrBadPriority
			case 6:
				r.Priority, wantErr = 12, sim.ErrBadPriority
			case 7:
				r.Deadline, wantErr = math.NaN(), sim.ErrBadDeadline
			default:
				r.Deadline, wantErr = math.Inf(1), sim.ErrBadDeadline
			}
		}

		out, err := Run(cfg, reqs)
		if wantErr != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("malformed input: err = %v, want %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed input failed: %v", err)
		}
		if len(out.Finishes) != len(reqs) {
			t.Fatalf("%d finishes for %d requests", len(out.Finishes), len(reqs))
		}
		if total := out.Completed + out.ShedFront + out.ShedChips + out.Rejected + out.ShedDrain; total != len(reqs) {
			t.Fatalf("conservation: completed %d + shedFront %d + shedChips %d + rejected %d + shedDrain %d = %d, want %d",
				out.Completed, out.ShedFront, out.ShedChips, out.Rejected, out.ShedDrain, total, len(reqs))
		}
		completed := 0
		for i, fin := range out.Finishes {
			if fin < 0 {
				continue
			}
			completed++
			if fin < reqs[i].Arrival {
				t.Fatalf("request %d finished at %g before its arrival %g", i, fin, reqs[i].Arrival)
			}
		}
		if completed != out.Completed {
			t.Fatalf("Completed = %d but %d finishes are non-negative", out.Completed, completed)
		}
		for c, cr := range out.PerChip {
			if len(cr.Requests) != out.Dispatched[c] {
				t.Fatalf("chip %d: %d requests vs Dispatched %d", c, len(cr.Requests), out.Dispatched[c])
			}
		}
	})
}
