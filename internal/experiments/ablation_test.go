package experiments

import (
	"strings"
	"testing"

	"planaria/internal/metrics"
	"planaria/internal/workload"
)

func TestSchedulerAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	s := testSuite(t)
	rows, err := s.SchedulerAblation(workload.ScenarioC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (3 QoS × 4 policies)", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.QoS+"|"+r.Policy] = r.QPS
	}
	for _, q := range []string{"QoS-S", "QoS-M", "QoS-H"} {
		spatial := byKey[q+"|spatial (Alg. 1)"]
		equal := byKey[q+"|equal-share"]
		fcfs := byKey[q+"|fcfs"]
		prema := byKey[q+"|prema (monolithic)"]
		// Algorithm 1 must dominate the naive spatial policy, which must
		// dominate run-to-completion on the mixed workload.
		if spatial < equal {
			t.Errorf("%s: spatial %.1f < equal-share %.1f", q, spatial, equal)
		}
		if equal < fcfs {
			t.Errorf("%s: equal-share %.1f < fcfs %.1f on the mixed workload", q, equal, fcfs)
		}
		// The full system must beat the monolithic temporal baseline.
		if spatial < prema {
			t.Errorf("%s: spatial %.1f < prema %.1f", q, spatial, prema)
		}
	}
	if out := FormatSchedulerAblation(rows); !strings.Contains(out, "equal-share") {
		t.Error("format missing policies")
	}
}

func TestOmniAblationNeverFaster(t *testing.T) {
	rows, err := OmniAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Removing shapes can never improve the compiled latency.
		if r.NoOmniCycles < r.FullCycles {
			t.Errorf("%s: restricted search faster (%d < %d)", r.Model, r.NoOmniCycles, r.FullCycles)
		}
		if r.SlowdownPct < -1e-9 {
			t.Errorf("%s: negative slowdown %f", r.Model, r.SlowdownPct)
		}
	}
	if out := FormatOmniAblation(rows); !strings.Contains(out, "slowdown") {
		t.Error("format missing header")
	}
}

func TestExtendedGranularityContainsFig18(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ExtendedGranularity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	edp := map[int]float64{}
	for _, r := range rows {
		edp[r.Granularity] = r.RelativeEDP
	}
	if edp[32] != 1.0 {
		t.Errorf("32x32 EDP = %g, want normalized 1.0", edp[32])
	}
	// The overhead trend must keep growing below 16: 8×8 is worse than
	// 16×16.
	if edp[8] <= edp[16] {
		t.Errorf("8x8 EDP %.3f not above 16x16 %.3f", edp[8], edp[16])
	}
	if edp[32] > edp[16] || edp[32] > edp[64] {
		t.Errorf("EDP minimum not at 32x32: %v", edp)
	}
}

func TestPenaltySensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	s := testSuite(t)
	rows, err := s.PenaltySensitivity(workload.ScenarioC(), workload.QoSMedium)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Throughput must not increase as preemption gets dearer, and free
	// preemption must be at least as good as 100x penalties.
	for i := 1; i < len(rows); i++ {
		if rows[i].QPS > rows[i-1].QPS*1.15 { // 15% search tolerance
			t.Errorf("throughput rose with penalty scale: %.1f@%g > %.1f@%g",
				rows[i].QPS, rows[i].Scale, rows[i-1].QPS, rows[i-1].Scale)
		}
	}
	if rows[0].QPS <= 0 {
		t.Fatal("no sustainable throughput at near-free preemption")
	}
	out := FormatPenaltySensitivity(workload.ScenarioC(), workload.QoSMedium, rows)
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

// uncappedSearch is penaltyThroughput's own search from before it moved
// onto metrics.MaxQPS: the same doubling and bisection, but without the
// early return once the doubling reaches 2^20 QPS.
func uncappedSearch(meets func(float64) (bool, error)) (float64, error) {
	lo, hi := 0.5, 0.5
	okLo, err := meets(lo)
	if err != nil || !okLo {
		return 0, err
	}
	for hi < 1<<20 {
		hi *= 2
		ok, err := meets(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
	}
	for i := 0; i < 10 && hi-lo > 0.05*lo; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
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

// TestPenaltySearchCapChangesNothing: metrics.MaxQPS stops at 2^19 QPS
// when the doubling reaches 2^20, which penaltyThroughput's own search
// did not. The two can differ only when 2^19 QPS passes — shown on step
// criteria — and no penalty scale comes near it, so every row is the
// same under either search.
func TestPenaltySearchCapChangesNothing(t *testing.T) {
	for _, limit := range []float64{0.1, 0.5, 0.7, 3, 37.5, 1000, 1 << 18, 1<<19 - 1, 1<<20 - 1} {
		step := func(qps float64) (bool, error) { return qps <= limit, nil }
		got, _ := metrics.MaxQPS(step)
		want, _ := uncappedSearch(step)
		if limit < 1<<19 && got != want {
			t.Errorf("limit %g: MaxQPS %g, uncapped search %g", limit, got, want)
		}
		if limit >= 1<<19 && got >= want {
			t.Errorf("limit %g: MaxQPS %g not below uncapped search %g past the cap", limit, got, want)
		}
	}
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	s := testSuite(t)
	for _, scale := range []float64{0.001, 1, 10, 100} {
		meets := penaltyMeets(s.Planaria.Cfg, s.Planaria.Programs, s.Planaria.Params, s.Opt,
			workload.ScenarioC(), workload.QoSMedium, scale)
		if ok, err := meets(1 << 19); err != nil || ok {
			t.Fatalf("scale %g: 2^19 QPS meets the SLA (%v, %v); the cap is reachable", scale, ok, err)
		}
		got, err := penaltyThroughput(s.Planaria.Cfg, s.Planaria.Programs, s.Planaria.Params, s.Opt,
			workload.ScenarioC(), workload.QoSMedium, scale)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncappedSearch(meets)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("scale %g: MaxQPS search %g, uncapped search %g", scale, got, want)
		}
	}
}
