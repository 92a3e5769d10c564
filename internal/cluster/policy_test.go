package cluster

import (
	"fmt"
	"testing"
)

func views(n int, unhealthy ...int) []ChipView {
	v := make([]ChipView, n)
	for i := range v {
		v[i] = ChipView{Index: i, Healthy: true}
	}
	for _, u := range unhealthy {
		v[u].Healthy = false
	}
	return v
}

func TestNewBalancerNamesAndAliases(t *testing.T) {
	for name, want := range map[string]string{
		"round-robin": "round-robin", "rr": "round-robin",
		"least-work": "least-work", "lw": "least-work", "jsq": "least-work",
		"affinity": "affinity", "hash": "affinity",
	} {
		b, err := NewBalancer(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name() != want {
			t.Errorf("NewBalancer(%q).Name() = %q, want %q", name, b.Name(), want)
		}
	}
	if _, err := NewBalancer("bogus"); err == nil {
		t.Error("NewBalancer accepted an unknown policy")
	}
	if len(Policies()) != 3 {
		t.Errorf("Policies() = %v, want the three built-ins", Policies())
	}
}

func TestRoundRobinCyclesAndSkipsUnhealthy(t *testing.T) {
	b, _ := NewBalancer("round-robin")
	var picks []int
	for i := 0; i < 6; i++ {
		picks = append(picks, b.Pick("m", 0, views(3)))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if fmt.Sprint(picks) != fmt.Sprint(want) {
		t.Errorf("healthy cycle = %v, want %v", picks, want)
	}
	b, _ = NewBalancer("round-robin")
	picks = picks[:0]
	for i := 0; i < 4; i++ {
		picks = append(picks, b.Pick("m", 0, views(3, 1)))
	}
	want = []int{0, 2, 0, 2}
	if fmt.Sprint(picks) != fmt.Sprint(want) {
		t.Errorf("cycle with chip 1 dead = %v, want %v", picks, want)
	}
	if got := b.Pick("m", 0, views(3, 0, 1, 2)); got != -1 {
		t.Errorf("all-dead pick = %d, want -1", got)
	}
}

func TestLeastWorkPicksMinAndBreaksTiesByIndex(t *testing.T) {
	b, _ := NewBalancer("least-work")
	v := views(4)
	v[0].Outstanding = 3
	v[1].Outstanding = 1
	v[2].Outstanding = 1 // ties with 1: lower index wins
	v[3].Outstanding = 2
	if got := b.Pick("m", 0, v); got != 1 {
		t.Errorf("pick = %d, want 1 (least outstanding, lowest index on tie)", got)
	}
	// All-equal backlog: the tie breaks to chip 0.
	if got := b.Pick("m", 0, views(4)); got != 0 {
		t.Errorf("all-equal pick = %d, want 0", got)
	}
	// The minimum being unhealthy must not attract work.
	v[1].Healthy = false
	if got := b.Pick("m", 0, v); got != 2 {
		t.Errorf("pick with min dead = %d, want 2", got)
	}
	if got := b.Pick("m", 0, views(2, 0, 1)); got != -1 {
		t.Errorf("all-dead pick = %d, want -1", got)
	}
}

func TestAffinityStableAcrossRunsAndInstances(t *testing.T) {
	b1, _ := NewBalancer("affinity")
	b2, _ := NewBalancer("affinity")
	for i := 0; i < 40; i++ {
		model := fmt.Sprintf("model-%d", i)
		first := b1.Pick(model, 0, views(5))
		for rep := 0; rep < 3; rep++ {
			if got := b1.Pick(model, float64(rep), views(5)); got != first {
				t.Fatalf("%s: pick changed from %d to %d on repeat", model, first, got)
			}
			if got := b2.Pick(model, 0, views(5)); got != first {
				t.Fatalf("%s: fresh balancer picked %d, want %d", model, got, first)
			}
		}
	}
}

func TestAffinitySpreadsModels(t *testing.T) {
	b, _ := NewBalancer("affinity")
	hit := map[int]int{}
	for i := 0; i < 64; i++ {
		hit[b.Pick(fmt.Sprintf("model-%d", i), 0, views(4))]++
	}
	for chip := 0; chip < 4; chip++ {
		if hit[chip] == 0 {
			t.Errorf("chip %d owns no models out of 64 (distribution %v)", chip, hit)
		}
	}
}

// TestAffinityRedistributesOnlyDeadChipsShare is the consistent-hashing
// property: killing one chip moves only the models that chip owned.
func TestAffinityRedistributesOnlyDeadChipsShare(t *testing.T) {
	b, _ := NewBalancer("affinity")
	const chips, models = 5, 100
	const dead = 2
	before := make([]int, models)
	for i := range before {
		before[i] = b.Pick(fmt.Sprintf("model-%d", i), 0, views(chips))
	}
	moved := 0
	for i := range before {
		after := b.Pick(fmt.Sprintf("model-%d", i), 0, views(chips, dead))
		if before[i] != dead {
			if after != before[i] {
				t.Errorf("model-%d moved %d -> %d though chip %d died", i, before[i], after, dead)
			}
			continue
		}
		moved++
		if after == dead || after < 0 {
			t.Errorf("model-%d still routed to dead chip (got %d)", i, after)
		}
	}
	if moved == 0 {
		t.Fatal("dead chip owned no models; test proves nothing")
	}
}
