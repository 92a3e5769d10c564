package sim_test

import (
	"math"
	"math/big"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// fuzzInput hands out the fuzz input one byte at a time; past its end,
// an xorshift generator seeded by a hash of the input keeps a short
// input describing a full-sized run.
type fuzzInput struct {
	data []byte
	x    uint64
}

func newFuzzInput(data []byte) *fuzzInput {
	x := uint64(0xcbf29ce484222325) // FNV-1a
	for _, c := range data {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	return &fuzzInput{data: data, x: x | 1}
}

func (in *fuzzInput) next() int {
	if len(in.data) > 0 {
		v := in.data[0]
		in.data = in.data[1:]
		return int(v)
	}
	in.x ^= in.x << 13
	in.x ^= in.x >> 7
	in.x ^= in.x << 17
	return int(in.x >> 56)
}

// fuzzRequests decodes up to 48 requests: arrival gaps that tie, step
// back (unsorted input) or step forward, both toy models and one the
// node does not serve, generous to hopeless deadlines, every priority,
// fused work, and identity, increasing or decreasing IDs.
func fuzzRequests(in *fuzzInput, iso float64) []workload.Request {
	reqs := make([]workload.Request, 1+in.next()%48)
	ids := in.next() % 3
	at := 0.0
	for i := range reqs {
		switch g := in.next(); {
		case g < 64: // tie
		case g < 96:
			at = math.Max(0, at-float64(g-63)*iso/64)
		default:
			at += float64(g-95) * iso / 64
		}
		m := in.next()
		model := []string{"toy-a", "toy-b"}[m%2]
		if m%13 == 12 {
			model = "no-such-model"
		}
		q := []float64{0.5, 1.2, 3, 30}[in.next()%4] * iso
		id := []int{i, 7 + 3*i, 1000 - 5*i}[ids]
		reqs[i] = workload.Request{
			ID: id, Model: model, Domain: []string{"classification", "detection"}[m/2%2],
			Arrival: at, Priority: 1 + m%11, QoS: q, Deadline: at + q,
			Level: "QoS-M", Work: float64(in.next()%3) * 0.75,
		}
	}
	return reqs
}

// FuzzNodeRun drives Node.Run with every sink attached over random
// streams, fault schedules (fission masking, derating, or a chip that
// dies), shed policies, retry budgets and policies, and checks the
// run's conservation identities: every request completes, is shed, or
// is rejected; Finishes[i] is -1 exactly for requests that did not
// complete; each ledger record's spans sum to its end − start; the
// occupancy partition covers units × horizon; and the trace holds one
// finish per completion.
func FuzzNodeRun(f *testing.F) {
	cfg := arch.Planaria()
	progs := goldenModels(f, cfg)
	iso := cfg.Seconds(progs["toy-a"].Table(cfg.NumSubarrays()).TotalCycles)
	// Seeds: policy, fault kind, shed policy, retry budget, fault seed.
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0},
		{1, 2, 1, 2, 3},
		{2, 1, 2, 0, 5},
		{3, 3, 0, 1, 7},
		{4, 1, 1, 2, 9},
		{5, 2, 2, 1, 11},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := newFuzzInput(data)
		pol := in.next() % len(goldenPolicies)
		faultKind := goldenFaults[in.next()%len(goldenFaults)]
		shed := goldenShed[in.next()%len(goldenShed)]
		budget := in.next() % 3
		faultSeed := int64(in.next())
		reqs := fuzzRequests(in, iso)
		horizon := iso
		for _, r := range reqs {
			horizon = math.Max(horizon, 2*r.Arrival)
		}
		var schedule *fault.Schedule
		switch faultKind {
		case "fission", "derate":
			s, err := fault.Generate(16, 4, 10/horizon, horizon, horizon/20, faultSeed)
			if err != nil {
				t.Fatal(err)
			}
			schedule = s
		case "dead":
			schedule = goldenSchedule(t, faultKind, horizon)
		}
		n := goldenNode(t, cfg, progs, pol, faultKind, schedule, shed)
		n.MaxAttempts = budget
		n.Trace, n.Obs = &sim.Trace{}, obs.New()
		n.Attrib, n.Occ = obs.NewLedger(0), obs.NewOccupancy(0)
		if ob, ok := n.Policy.(obs.Observable); ok {
			ob.SetObserver(n.Obs)
		}
		out, err := n.Run(reqs)
		if err != nil {
			t.Fatalf("well-formed input failed: %v", err)
		}

		completed := 0
		for i, fin := range out.Finishes {
			done := n.Attrib.Cause(i) == obs.CauseDone
			if fin == -1 {
				if done {
					t.Fatalf("request %d: closed done without a finish", i)
				}
				continue
			}
			if !done || fin < reqs[i].Arrival || out.Latency[i] != fin-reqs[i].Arrival {
				t.Fatalf("request %d: finish %v, latency %v, arrival %v, cause %v",
					i, fin, out.Latency[i], reqs[i].Arrival, n.Attrib.Cause(i))
			}
			completed++
		}
		if sum := completed + out.Shed + out.Rejected; sum != len(reqs) {
			t.Fatalf("conservation: completed %d + shed %d + rejected %d = %d, want %d",
				completed, out.Shed, out.Rejected, sum, len(reqs))
		}
		finishes := 0
		for _, e := range n.Trace.Events {
			if e.Kind == sim.EvFinish {
				finishes++
			}
		}
		if finishes != completed {
			t.Fatalf("trace holds %d finishes for %d completions", finishes, completed)
		}
		for i := range reqs {
			spans := n.Attrib.Spans(i, nil)
			if len(spans) == 0 {
				t.Fatalf("request %d: no closed ledger record", i)
			}
			sum := new(big.Float).SetPrec(200)
			for _, s := range spans {
				sum.Add(sum, new(big.Float).SetPrec(200).Sub(big.NewFloat(s.To), big.NewFloat(s.From)))
			}
			want := new(big.Float).SetPrec(200).Sub(big.NewFloat(spans[len(spans)-1].To), big.NewFloat(spans[0].From))
			if sum.Cmp(want) != 0 {
				t.Fatalf("request %d: spans sum to %s, end − start is %s", i, sum.Text('g', 25), want.Text('g', 25))
			}
		}
		if o := n.Occ; o.Busy+o.Reconfig+o.Faulted+o.Idle != o.Units*o.Horizon {
			t.Fatalf("occupancy partition broke: %+v", *o)
		}
	})
}
