// Package metrics evaluates serving systems the way the paper's
// evaluation does (§VI-A): throughput is the maximum Poisson arrival rate
// (QPS) at which the MLPerf server SLA still holds, SLA satisfaction rate
// is the fraction of workload instances adhering to the SLA at a fixed
// rate, fairness is PREMA's min-normalized-progress metric, and energy is
// the total consumption per workload.
package metrics

import (
	"fmt"
	"math"
	"sync"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/energy"
	"planaria/internal/sim"
	"planaria/internal/workload"
)

// System bundles everything needed to simulate one serving system
// (Planaria or the PREMA baseline).
type System struct {
	Name string
	Cfg  arch.Config
	// NewPolicy constructs a fresh policy per simulation (policies such
	// as PREMA's token scheduler are stateful).
	NewPolicy func() sim.Policy
	// Programs maps model name → compiled program for Cfg.
	Programs map[string]*compiler.Program
	Params   energy.Params
}

func (s System) node() *sim.Node {
	return &sim.Node{Cfg: s.Cfg, Policy: s.NewPolicy(), Programs: s.Programs, Params: s.Params}
}

// Options controls evaluation cost/precision.
type Options struct {
	// Requests per workload instance.
	Requests int
	// Instances (different seeds) per evaluation point.
	Instances int
	// Seed is the base random seed.
	Seed int64
}

// DefaultOptions balances precision against simulation cost.
func DefaultOptions() Options {
	return Options{Requests: 60, Instances: 5, Seed: 1}
}

// Aggregate summarizes one evaluation point (system × scenario × QoS ×
// rate) over Options.Instances instances.
type Aggregate struct {
	QPS       float64
	SLARate   float64 // fraction of instances meeting the SLA
	Fairness  float64 // geometric mean over instances
	EnergyJ   float64 // mean per instance
	MeanLatMS float64 // mean request latency, milliseconds
}

// Evaluate simulates Options.Instances workload instances at a fixed rate.
func Evaluate(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options) (Aggregate, error) {
	if err := opt.check(); err != nil {
		return Aggregate{}, err
	}
	agg := Aggregate{QPS: qps, Fairness: 1}
	outs := make([]*sim.Outcome, opt.Instances)
	err := eachInstance(sc, lvl, qps, opt, func(inst int, reqs []workload.Request) (err error) {
		outs[inst], err = sys.node().Run(reqs)
		return err
	})
	if err != nil {
		return Aggregate{}, err
	}
	logFairSum := 0.0
	fairCount := 0
	var latSum float64
	var latN int
	for _, out := range outs {
		if out.MeetsSLA {
			agg.SLARate++
		}
		if out.Fairness > 0 {
			logFairSum += math.Log(out.Fairness)
			fairCount++
		}
		agg.EnergyJ += out.EnergyJ
		for _, l := range out.Latency {
			latSum += l
			latN++
		}
	}
	agg.SLARate /= float64(opt.Instances)
	agg.EnergyJ /= float64(opt.Instances)
	if fairCount > 0 {
		agg.Fairness = math.Exp(logFairSum / float64(fairCount))
	}
	if latN > 0 {
		agg.MeanLatMS = latSum / float64(latN) * 1e3
	}
	return agg, nil
}

// meetsAt reports whether a majority of instances meet the SLA at qps.
// Only the verdict is needed, so each instance runs under
// sim.Node.MeetsSLA, which stops as soon as its answer is certain; the
// instances and the majority arithmetic are Evaluate's.
func meetsAt(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options) (bool, error) {
	if err := opt.check(); err != nil {
		return false, err
	}
	meets := make([]bool, opt.Instances)
	err := eachInstance(sc, lvl, qps, opt, func(inst int, reqs []workload.Request) (err error) {
		meets[inst], err = sys.node().MeetsSLA(reqs)
		return err
	})
	if err != nil {
		return false, err
	}
	slaRate := 0.0
	for _, ok := range meets {
		if ok {
			slaRate++
		}
	}
	slaRate /= float64(opt.Instances)
	return slaRate >= 0.5, nil
}

// check rejects options that describe no simulation.
func (o Options) check() error {
	if o.Requests <= 0 || o.Instances <= 0 {
		return fmt.Errorf("metrics: bad options %+v", o)
	}
	return nil
}

// eachInstance generates every instance's request stream and runs f on
// it, all instances concurrently. They are independent simulations, so
// f writes only its own instance's slot and callers aggregate in index
// order, which keeps results deterministic. The first error in index
// order is returned.
func eachInstance(sc workload.Scenario, lvl workload.QoSLevel, qps float64, opt Options,
	f func(inst int, reqs []workload.Request) error) error {
	errs := make([]error, opt.Instances)
	var wg sync.WaitGroup
	for inst := 0; inst < opt.Instances; inst++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			reqs, err := workload.Generate(sc, lvl, qps, opt.Requests, opt.Seed+int64(inst)*7919)
			if err != nil {
				errs[inst] = err
				return
			}
			errs[inst] = f(inst, reqs)
		}(inst)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Throughput finds the maximum sustainable QPS under the SLA: the
// largest rate at which a majority of instances meet it (MaxQPS).
// Returns 0 when even the lowest probed rate fails.
func Throughput(sys System, sc workload.Scenario, lvl workload.QoSLevel, opt Options) (float64, error) {
	return MaxQPS(func(qps float64) (bool, error) {
		return meetsAt(sys, sc, lvl, qps, opt)
	})
}

// MaxQPS is the throughput search every harness shares: starting at
// 0.5 QPS it doubles the rate while meets holds, then bisects between
// the last passing and the first failing rate until they are within 5%
// (at most 10 steps), and returns the last passing rate. It returns 0
// when 0.5 QPS already fails, and stops at 2^19 QPS without bisecting
// when the doubling reaches 2^20. meets is each caller's own criterion
// (majority of instances, of clusters, ...); the first error aborts the
// search.
func MaxQPS(meets func(qps float64) (bool, error)) (float64, error) {
	const (
		minQPS = 0.5
		maxQPS = 1 << 20
	)
	ok, err := meets(minQPS)
	if err != nil || !ok {
		return 0, err
	}
	lo := minQPS
	hi := lo
	for hi < maxQPS {
		hi *= 2
		if ok, err = meets(hi); err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
	}
	if hi >= maxQPS {
		return lo, nil
	}
	for i := 0; i < 10 && hi-lo > 0.05*lo; i++ {
		mid := (lo + hi) / 2
		if ok, err = meets(mid); err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// MinNodes returns the smallest cluster of identical nodes that meets the
// SLA in every instance at the given rate (Fig 16's scale-out metric).
// Requests are dispatched to the least-loaded node, estimated by each
// node's backlog of isolated execution times. Returns maxNodes+1 when
// even maxNodes fail.
func MinNodes(sys System, sc workload.Scenario, lvl workload.QoSLevel, qps float64, maxNodes int, opt Options) (int, error) {
	iso := make(map[string]float64, len(sys.Programs))
	full := sys.Cfg.NumSubarrays()
	for name, p := range sys.Programs {
		iso[name] = sys.Cfg.Seconds(p.Table(full).TotalCycles)
	}
	for k := 1; k <= maxNodes; k++ {
		allOK := true
		for inst := 0; inst < opt.Instances && allOK; inst++ {
			reqs, err := workload.Generate(sc, lvl, qps, opt.Requests, opt.Seed+int64(inst)*104729)
			if err != nil {
				return 0, err
			}
			perNode, err := dispatch(reqs, k, iso)
			if err != nil {
				return 0, err
			}
			finishes := make([]float64, len(reqs))
			for i := range finishes {
				finishes[i] = -1
			}
			for _, sub := range perNode {
				if len(sub) == 0 {
					continue
				}
				out, err := sys.node().Run(sub)
				if err != nil {
					return 0, err
				}
				// Run's outcome is positional; request IDs are the
				// original indices into reqs.
				for i, r := range sub {
					finishes[r.ID] = out.Finishes[i]
				}
			}
			if !workload.MeetsSLA(reqs, finishes) {
				allOK = false
			}
		}
		if allOK {
			return k, nil
		}
	}
	return maxNodes + 1, nil
}

// dispatch assigns requests to k nodes least-loaded-first, where load is
// the node's backlog of isolated execution times. Each dispatched request
// carries its original index into the global slice as its ID.
func dispatch(reqs []workload.Request, k int, iso map[string]float64) ([][]workload.Request, error) {
	free := make([]float64, k)
	perNode := make([][]workload.Request, k)
	for i, r := range reqs {
		best := 0
		for n := 1; n < k; n++ {
			if free[n] < free[best] {
				best = n
			}
		}
		t, ok := iso[r.Model]
		if !ok {
			return nil, fmt.Errorf("metrics: no isolated time for %q", r.Model)
		}
		start := math.Max(free[best], r.Arrival)
		free[best] = start + t
		local := r
		local.ID = i
		perNode[best] = append(perNode[best], local)
	}
	return perNode, nil
}
