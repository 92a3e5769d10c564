package cluster

import (
	"fmt"
	"hash/fnv"
)

// ChipView is the balancer's per-chip snapshot at a dispatch instant.
type ChipView struct {
	// Index is the chip's position in the cluster (stable for a run).
	Index int
	// Healthy reports whether the chip has at least one usable subarray
	// at the dispatch instant (per its fault schedule). The balancer must
	// not pick an unhealthy chip.
	Healthy bool
	// Outstanding is the chip's estimated backlog in seconds of isolated
	// execution time for everything already dispatched to it.
	Outstanding float64
}

// Balancer chooses a chip for each dispatch group of the named model.
// Implementations must be deterministic: identical call sequences yield
// identical picks. Pick returns the chosen chip index, or -1 when no
// healthy chip exists (the front end sheds the group). The set is
// closed — Config.Policy names one of the built-ins (see NewBalancer).
type Balancer interface {
	Name() string
	Pick(model string, now float64, view []ChipView) int
}

// Policies lists the built-in balancing policy names in canonical order.
func Policies() []string {
	return []string{"round-robin", "least-work", "affinity"}
}

// NewBalancer constructs a fresh balancer by name. Accepted names (and
// aliases): "round-robin" ("rr"), "least-work" ("lw", "jsq"),
// "affinity" ("hash").
//
//perf:cold once-per-run constructor; the per-request path is Pick
func NewBalancer(name string) (Balancer, error) {
	switch name {
	case "round-robin", "rr":
		return &roundRobin{}, nil
	case "least-work", "lw", "jsq":
		return leastWork{}, nil
	case "affinity", "hash":
		return affinity{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q (want round-robin, least-work, or affinity)", name)
	}
}

// roundRobin cycles through the chips, skipping unhealthy ones. The
// cursor advances past the chosen chip, so a dead chip costs one probe
// per dispatch but never receives work.
type roundRobin struct {
	next int
}

func (*roundRobin) Name() string { return "round-robin" }

func (b *roundRobin) Pick(_ string, _ float64, view []ChipView) int {
	n := len(view)
	for probe := 0; probe < n; probe++ {
		i := (b.next + probe) % n
		if view[i].Healthy {
			b.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// leastWork is join-shortest-queue over the estimated backlog: the
// healthy chip with the least outstanding isolated work wins, ties
// broken by lowest chip index (determinism).
type leastWork struct{}

func (leastWork) Name() string { return "least-work" }

func (leastWork) Pick(_ string, _ float64, view []ChipView) int {
	best := -1
	for _, v := range view {
		if !v.Healthy {
			continue
		}
		if best < 0 || v.Outstanding < view[best].Outstanding {
			best = v.Index
		}
	}
	return best
}

// affinity pins each model to a chip via rendezvous (highest-random-
// weight) hashing over the model name: every chip scores
// hash(model, chip) and the highest-scoring healthy chip wins. The
// assignment is stable across runs (the hash has no seed or state), and
// when a chip dies only the models it owned move — every other model
// keeps its chip, the consistent-hashing property the model-affinity
// policy exists for (weight locality: a chip serves few distinct models,
// so its scratchpad keeps their weights resident).
type affinity struct{}

func (affinity) Name() string { return "affinity" }

// affinityScore is the rendezvous weight of (model, chip).
func affinityScore(model string, chip int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{'|', byte(chip), byte(chip >> 8), byte(chip >> 16), byte(chip >> 24)})
	return h.Sum64()
}

func (affinity) Pick(model string, _ float64, view []ChipView) int {
	best := -1
	var bestScore uint64
	for _, v := range view {
		if !v.Healthy {
			continue
		}
		// Strict > keeps the lowest index on a (vanishingly unlikely)
		// score tie: views iterate in index order.
		s := affinityScore(model, v.Index)
		if best < 0 || s > bestScore {
			best, bestScore = v.Index, s
		}
	}
	return best
}
