package obs

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// Ledger mechanics: instants, clamping, terminal causes, and the two
// read paths (Durations and Spans) that DESIGN.md §14's conservation
// identity depends on.

func TestLedgerOpenMarkClose(t *testing.T) {
	l := NewLedger(2)
	l.Open(0, 1.0, PhaseQueueWait)
	l.Mark(0, 1.5, PhaseCompute)
	l.Mark(0, 2.25, PhasePreemptStall)
	l.Close(0, 3.0, CauseDone)

	if !l.Closed(0) || l.Cause(0) != CauseDone {
		t.Fatalf("record 0: closed=%v cause=%v", l.Closed(0), l.Cause(0))
	}
	if s, e := l.Start(0), l.End(0); s != 1.0 || e != 3.0 {
		t.Fatalf("start/end = %g/%g, want 1/3", s, e)
	}
	var dur [NumPhases]float64
	if !l.Durations(0, &dur) {
		t.Fatal("Durations reported not-closed")
	}
	if dur[PhaseQueueWait] != 0.5 || dur[PhaseCompute] != 0.75 || dur[PhasePreemptStall] != 0.75 {
		t.Fatalf("durations = %v", dur)
	}
	spans := l.Spans(0, nil)
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	// Chronological order with bit-exact shared boundaries.
	for i := 1; i < len(spans); i++ {
		if spans[i].From != spans[i-1].To {
			t.Fatalf("span boundary mismatch: %v", spans)
		}
	}
	if spans[0].From != 1.0 || spans[2].To != 3.0 || spans[1].Phase != PhaseCompute {
		t.Fatalf("spans = %v", spans)
	}

	// Record 1 never opened: Durations and Spans both refuse it.
	if l.Durations(1, &dur) {
		t.Fatal("unopened record reported durations")
	}
	if got := l.Spans(1, nil); len(got) != 0 {
		t.Fatalf("unopened record has spans: %v", got)
	}
}

func TestLedgerClampsBackwardInstants(t *testing.T) {
	l := NewLedger(1)
	l.Open(0, 5.0, PhaseQueueWait)
	l.Mark(0, 5.0-1e-13, PhaseCompute) // sub-Eps skew from event merge
	l.Close(0, 4.0, CauseDone)         // grossly backwards: clamps to 5.0
	var dur [NumPhases]float64
	l.Durations(0, &dur)
	total := 0.0
	for _, d := range dur {
		if d < 0 {
			t.Fatalf("negative phase duration: %v", dur)
		}
		total += d
	}
	if total != l.End(0)-l.Start(0) {
		t.Fatalf("conservation broke under clamping: Σ=%g, end-start=%g", total, l.End(0)-l.Start(0))
	}
}

func TestLedgerTerminal(t *testing.T) {
	l := NewLedger(2)
	l.Terminal(0, 2.0, 2.5, PhaseQueueWait, CauseShedChip)
	if !l.Closed(0) || l.Cause(0) != CauseShedChip {
		t.Fatal("Terminal did not close the record")
	}
	var dur [NumPhases]float64
	l.Durations(0, &dur)
	if dur[PhaseQueueWait] != 0.5 {
		t.Fatalf("terminal span = %v", dur)
	}
	// Terminal on an already-open record degrades Open to Mark.
	l.Open(1, 1.0, PhaseQueueWait)
	l.Terminal(1, 3.0, 3.0, PhaseRetryBackoff, CauseShedRetries)
	dur = [NumPhases]float64{} // Durations accumulates; clear record 0's spans
	l.Durations(1, &dur)
	if dur[PhaseQueueWait] != 2.0 || l.Cause(1) != CauseShedRetries {
		t.Fatalf("terminal-after-open: dur=%v cause=%v", dur, l.Cause(1))
	}
}

func TestLedgerNilAndOutOfRangeAreNoops(t *testing.T) {
	var l *Ledger
	l.Open(0, 1, PhaseCompute)
	l.Mark(0, 2, PhaseCompute)
	l.Close(0, 3, CauseDone)
	l.Terminal(0, 1, 2, PhaseCompute, CauseDone)
	l.Reset(4)
	if l.Len() != 0 || l.Closed(0) || l.Cause(0) != CauseOpen {
		t.Fatal("nil ledger must be inert")
	}
	var dur [NumPhases]float64
	if l.Durations(0, &dur) || len(l.Spans(0, nil)) != 0 {
		t.Fatal("nil ledger produced data")
	}

	real := NewLedger(1)
	real.Open(-1, 1, PhaseCompute) // out of range: ignored
	real.Open(7, 1, PhaseCompute)
	real.Close(7, 2, CauseDone)
	if real.Closed(7) {
		t.Fatal("out-of-range position was recorded")
	}
}

func TestLedgerResetReusesArena(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 3; i++ {
		l.Open(i, float64(i), PhaseQueueWait)
		l.Close(i, float64(i)+1, CauseDone)
	}
	l.Reset(2)
	if l.Len() != 2 {
		t.Fatalf("Len after Reset = %d, want 2", l.Len())
	}
	if l.Closed(0) || l.Cause(0) != CauseOpen || !math.IsNaN(l.End(0)) {
		t.Fatal("Reset leaked prior state")
	}
	l.Open(1, 10, PhaseCompute)
	l.Close(1, 11, CauseDone)
	var dur [NumPhases]float64
	if !l.Durations(1, &dur) || dur[PhaseCompute] != 1 {
		t.Fatalf("post-Reset record wrong: %v", dur)
	}
}

func TestPhaseAndCauseStrings(t *testing.T) {
	wantPhases := []string{"admit-wait", "batch-wait", "queue-wait", "compute",
		"preempt-stall", "retry-backoff", "fault-stall", "drain-migrate"}
	for i := 0; i < NumPhases; i++ {
		if Phase(i).String() != wantPhases[i] {
			t.Errorf("Phase(%d) = %q, want %q", i, Phase(i), wantPhases[i])
		}
	}
	wantCauses := []string{"open", "done", "dispatched", "shed-admission",
		"shed-unroutable", "shed-chip", "shed-retries", "shed-dead-chip", "rejected",
		"shed-drain"}
	for i := 0; i < NumCauses; i++ {
		if Cause(i).String() != wantCauses[i] {
			t.Errorf("Cause(%d) = %q, want %q", i, Cause(i), wantCauses[i])
		}
	}
}

// TestLedgerBigFloatConservation checks the exactness claim directly:
// summing a record's spans with big.Float arithmetic reproduces
// end−start with zero rounding error, because spans share instants.
func TestLedgerBigFloatConservation(t *testing.T) {
	l := NewLedger(1)
	l.Open(0, 0.1, PhaseQueueWait)
	ts := []float64{0.1 + 1.0/3, 0.7, 1.0 / 0.7, 2.718281828, 3.14159}
	phases := []Phase{PhaseCompute, PhasePreemptStall, PhaseCompute, PhaseRetryBackoff}
	for i, p := range phases {
		l.Mark(0, ts[i], p)
	}
	l.Close(0, ts[len(ts)-1], CauseDone)

	sum := new(big.Float).SetPrec(200)
	for _, s := range l.Spans(0, nil) {
		d := new(big.Float).SetPrec(200).Sub(big.NewFloat(s.To), big.NewFloat(s.From))
		sum.Add(sum, d)
	}
	want := new(big.Float).SetPrec(200).Sub(big.NewFloat(l.End(0)), big.NewFloat(l.Start(0)))
	if sum.Cmp(want) != 0 {
		t.Fatalf("Σ spans = %s, end-start = %s", sum.Text('g', 30), want.Text('g', 30))
	}
}

// Occupancy accounting: integer cycle partition must be exact.

func TestOccupancyIntervalPartition(t *testing.T) {
	o := NewOccupancy(16)
	o.Interval(100, 10, 2, 4) // 100 cycles: 10 busy, 2 reconfig, 4 faulted units
	o.Interval(50, 16, 0, 0)
	o.Interval(0, 5, 5, 5) // zero-width: no-op
	if o.Horizon != 150 {
		t.Fatalf("horizon = %d, want 150", o.Horizon)
	}
	if got := o.Busy + o.Idle + o.Faulted + o.Reconfig; got != o.Units*o.Horizon {
		t.Fatalf("partition broke: %d != %d", got, o.Units*o.Horizon)
	}
	if o.Busy != 10*100+16*50 || o.Reconfig != 200 || o.Faulted != 400 {
		t.Fatalf("occ = %+v", o)
	}
}

func TestOccupancySpanFeedAndCloseHorizon(t *testing.T) {
	o := NewOccupancy(8)
	o.AddBusy(4, 30)
	o.AddFaulted(2, 10)
	o.AddReconfig(1, 5)
	o.CloseHorizon(40)
	if o.Horizon != 40 {
		t.Fatalf("horizon = %d", o.Horizon)
	}
	if got := o.Busy + o.Idle + o.Faulted + o.Reconfig; got != o.Units*o.Horizon {
		t.Fatalf("partition broke: %d != %d (occ %+v)", got, o.Units*o.Horizon, o)
	}
}

func TestOccupancyPadToAndMerge(t *testing.T) {
	a := NewOccupancy(4)
	a.Interval(10, 4, 0, 0)
	b := NewOccupancy(4)
	b.Interval(25, 2, 0, 0)
	a.PadTo(25)
	if a.Horizon != 25 || a.Idle != 4*15 {
		t.Fatalf("PadTo: %+v", a)
	}
	a.PadTo(10) // shrinking is a no-op
	if a.Horizon != 25 {
		t.Fatal("PadTo shrank the horizon")
	}
	f := NewOccupancy(0)
	f.Merge(a)
	f.Merge(b)
	if f.Units != 8 || f.Horizon != 25 {
		t.Fatalf("merge: %+v", f)
	}
	if got := f.Busy + f.Idle + f.Faulted + f.Reconfig; got != f.Units*f.Horizon {
		t.Fatalf("fleet partition broke: %d != %d", got, f.Units*f.Horizon)
	}
}

func TestOccupancyDecisionsAndNil(t *testing.T) {
	o := NewOccupancy(16)
	o.NoteDecision(true, 8, 16)
	o.NoteDecision(false, 40, 16)
	if o.Decisions != 2 || o.FitDecisions != 1 || o.DemandUnits != 48 || o.SupplyUnits != 32 {
		t.Fatalf("decision tallies: %+v", o)
	}
	if p := o.Pressure(); p != 1.5 {
		t.Fatalf("pressure = %g, want 1.5", p)
	}
	o.Interval(10, 8, 0, 0)
	if u := o.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}

	var nilO *Occupancy
	nilO.Interval(10, 1, 1, 1)
	nilO.AddBusy(1, 1)
	nilO.AddFaulted(1, 1)
	nilO.AddReconfig(1, 1)
	nilO.CloseHorizon(5)
	nilO.PadTo(5)
	nilO.Merge(o)
	nilO.NoteDecision(true, 1, 1)
	nilO.SetUnits(4)
	nilO.Reset()
	if nilO.Utilization() != 0 || nilO.Pressure() != 0 {
		t.Fatal("nil occupancy must be inert")
	}
}

// Builder aggregation: dominant-cause rule, quantiles, group ordering.

func TestAttribBuilderDominantRule(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64

	// Late completion: dominant phase = argmax, earlier phase wins ties.
	dur[PhaseQueueWait] = 2
	dur[PhaseCompute] = 2
	b.Add("m", "q", &dur, CauseDone, true)
	// Non-completed: dominant = terminal cause regardless of phases.
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 9
	b.Add("m", "q", &dur, CauseShedChip, false) // violated forced true
	// Met SLA: no dominant entry.
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 1
	b.Add("m", "q", &dur, CauseDone, false)

	rep := b.Report(nil)
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Requests != 3 || g.Completed != 2 || g.Violations != 2 {
		t.Fatalf("tallies: %+v", g)
	}
	want := map[string]int64{"queue-wait": 1, "shed-chip": 1}
	if len(g.Dominant) != 2 {
		t.Fatalf("dominant = %+v", g.Dominant)
	}
	for _, d := range g.Dominant {
		if want[d.Cause] != d.Count {
			t.Fatalf("dominant = %+v", g.Dominant)
		}
	}
	// Phases appear before causes in the histogram (enum order).
	if g.Dominant[0].Cause != "queue-wait" {
		t.Fatalf("dominant order = %+v", g.Dominant)
	}
}

func TestAttribBuilderQuantilesAndOrdering(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64
	for i := 1; i <= 100; i++ {
		dur[PhaseCompute] = float64(i)
		b.Add("zeta", "QoS-M", &dur, CauseDone, false)
	}
	dur = [NumPhases]float64{}
	dur[PhaseCompute] = 5
	b.Add("alpha", "QoS-S", &dur, CauseDone, false)

	rep := b.Report(nil)
	if len(rep.Groups) != 2 || rep.Groups[0].Model != "alpha" || rep.Groups[1].Model != "zeta" {
		t.Fatalf("group order: %+v", rep.Groups)
	}
	var compute *PhaseStat
	for i := range rep.Groups[1].Phases {
		if rep.Groups[1].Phases[i].Phase == "compute" {
			compute = &rep.Groups[1].Phases[i]
		}
	}
	if compute == nil || compute.Count != 100 {
		t.Fatalf("compute stat: %+v", compute)
	}
	if compute.P50 != 50 || compute.P99 != 99 {
		t.Fatalf("quantiles: p50=%g p99=%g", compute.P50, compute.P99)
	}
	if compute.Sum != 5050 || compute.Mean != 50.5 {
		t.Fatalf("sum/mean: %g/%g", compute.Sum, compute.Mean)
	}
}

func TestAttribReportFleetRollup(t *testing.T) {
	a := NewOccupancy(16)
	a.Interval(10, 8, 0, 0)
	b := NewOccupancy(16)
	b.Interval(30, 4, 2, 1)
	rep := NewAttribBuilder().Report([]*Occupancy{a, b})
	if len(rep.Chips) != 2 || rep.Fleet == nil {
		t.Fatalf("util rows: %+v", rep)
	}
	// Chips are padded to the common horizon before the fleet merge.
	for _, row := range rep.Chips {
		if row.Horizon != 30 {
			t.Fatalf("chip not padded: %+v", row)
		}
		if row.Busy+row.Idle+row.Faulted+row.Reconfig != row.Units*row.Horizon {
			t.Fatalf("chip partition broke: %+v", row)
		}
	}
	f := rep.Fleet
	if f.Units != 32 || f.Horizon != 30 ||
		f.Busy+f.Idle+f.Faulted+f.Reconfig != f.Units*f.Horizon {
		t.Fatalf("fleet row: %+v", f)
	}
	// Padding must not mutate the caller's accountants.
	if a.Horizon != 10 {
		t.Fatalf("Report mutated input occupancy: %+v", a)
	}
}

func TestAttribReportJSONRoundTripAndText(t *testing.T) {
	b := NewAttribBuilder()
	var dur [NumPhases]float64
	dur[PhaseCompute] = 0.25
	dur[PhaseQueueWait] = 0.5
	b.Add("ResNet-50", "QoS-H", &dur, CauseDone, true)
	b.Add("ResNet-50", "QoS-H", &dur, CauseShedChip, false)
	occ := NewOccupancy(16)
	occ.Interval(100, 10, 1, 1)
	rep := b.Report([]*Occupancy{occ})

	j1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadAttribReport(j1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("round trip changed bytes:\n%s\n---\n%s", j1, j2)
	}

	text := rep.Text()
	for _, want := range []string{"ResNet-50", "QoS-H", "queue-wait", "compute",
		"dominant causes", "shed-chip", "chip0", "fleet"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text() missing %q:\n%s", want, text)
		}
	}
}

// Alloc pins (ISSUE 8 satellite): disabled probes and warm stamping must
// never touch the allocator — the ledger sits on the engine's per-event
// path.

func TestNilAttribProbesZeroAllocs(t *testing.T) {
	var l *Ledger
	var o *Occupancy
	var dur [NumPhases]float64
	allocs := testing.AllocsPerRun(1000, func() {
		l.Open(0, 1, PhaseQueueWait)
		l.Mark(0, 2, PhaseCompute)
		l.Close(0, 3, CauseDone)
		l.Terminal(0, 1, 2, PhaseQueueWait, CauseShedChip)
		_ = l.Durations(0, &dur)
		o.Interval(10, 1, 0, 0)
		o.AddBusy(1, 1)
		o.NoteDecision(true, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil attribution probes: %.1f allocs/op, want 0", allocs)
	}
}

func TestWarmLedgerStampingZeroAllocs(t *testing.T) {
	l := NewLedger(8)
	// Warm the mark arena past what one iteration appends, then Reset:
	// steady-state stamping must reuse the capacity.
	for i := 0; i < 8; i++ {
		l.Open(i, 0, PhaseQueueWait)
		l.Mark(i, 1, PhaseCompute)
		l.Close(i, 2, CauseDone)
	}
	occ := NewOccupancy(16)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Reset(8)
		for i := 0; i < 8; i++ {
			l.Open(i, 0, PhaseQueueWait)
			l.Mark(i, 1, PhaseCompute)
			l.Close(i, 2, CauseDone)
		}
		occ.Interval(10, 4, 1, 1)
		occ.NoteDecision(true, 4, 16)
	})
	if allocs != 0 {
		t.Fatalf("warm ledger stamping: %.1f allocs/op, want 0", allocs)
	}
}

// TestLedgerReopen covers the drain-migration resume path: a record
// closed as dispatched reopens in drain-migrate at its close instant, so
// the [close, re-close] gap is an attributable span and big-float
// telescoping still holds over the full chain.
func TestLedgerReopen(t *testing.T) {
	l := NewLedger(2)
	l.Open(0, 1.0, PhaseAdmitWait)
	l.Mark(0, 1.5, PhaseBatchWait)
	l.Close(0, 2.0, CauseDispatched)
	l.Reopen(0, PhaseDrainMigrate)
	if l.Closed(0) || l.Cause(0) != CauseOpen {
		t.Fatal("Reopen left the record closed")
	}
	if p, ok := l.Current(0); !ok || p != PhaseDrainMigrate {
		t.Fatalf("Current after Reopen = %v, want drain-migrate", p)
	}
	l.Close(0, 3.25, CauseShedDrain)
	var dur [NumPhases]float64
	if !l.Durations(0, &dur) {
		t.Fatal("reclosed record has no durations")
	}
	if dur[PhaseAdmitWait] != 0.5 || dur[PhaseBatchWait] != 0.5 || dur[PhaseDrainMigrate] != 1.25 {
		t.Fatalf("durations after Reopen = %v", dur)
	}
	spans := l.Spans(0, nil)
	for i := 1; i < len(spans); i++ {
		if spans[i].From != spans[i-1].To {
			t.Fatalf("span %d not contiguous after Reopen: %v", i, spans)
		}
	}
	// Reopen on a still-open record is a no-op; on an out-of-range
	// position or nil ledger it must not panic.
	l.Open(1, 0, PhaseCompute)
	l.Reopen(1, PhaseDrainMigrate)
	if p, _ := l.Current(1); p != PhaseCompute {
		t.Fatal("Reopen of an open record changed its phase")
	}
	l.Reopen(-1, PhaseDrainMigrate)
	l.Reopen(99, PhaseDrainMigrate)
	var nilLed *Ledger
	nilLed.Reopen(0, PhaseDrainMigrate)
}

// sliceLedger is the referee for the Ledger's block arena: a
// single-slice mark store, append-grown, with the same clamp, chaining
// and read paths.
type sliceLedger struct {
	marks []attribMark
	head  []int32
	end   []float64
	cause []Cause
}

func newSliceLedger(n int) *sliceLedger {
	l := &sliceLedger{head: make([]int32, n), end: make([]float64, n), cause: make([]Cause, n)}
	for i := range l.head {
		l.head[i] = -1
		l.end[i] = math.NaN()
	}
	return l
}

func (l *sliceLedger) stamp(pos int, t float64, p Phase) {
	if h := l.head[pos]; h >= 0 && t < l.marks[h].t {
		t = l.marks[h].t
	}
	l.marks = append(l.marks, attribMark{t: t, prev: l.head[pos], phase: p})
	l.head[pos] = int32(len(l.marks) - 1)
}

func (l *sliceLedger) close(pos int, t float64, c Cause) {
	if h := l.head[pos]; h >= 0 && t < l.marks[h].t {
		t = l.marks[h].t
	}
	l.end[pos], l.cause[pos] = t, c
}

func (l *sliceLedger) reopen(pos int, p Phase) {
	t := l.end[pos]
	if math.IsNaN(t) {
		return
	}
	l.end[pos], l.cause[pos] = math.NaN(), CauseOpen
	l.stamp(pos, t, p)
}

func (l *sliceLedger) start(pos int) float64 {
	if l.head[pos] < 0 {
		return math.NaN()
	}
	i := l.head[pos]
	for l.marks[i].prev >= 0 {
		i = l.marks[i].prev
	}
	return l.marks[i].t
}

func (l *sliceLedger) spans(pos int) []PhaseSpan {
	h := l.head[pos]
	if h < 0 || math.IsNaN(l.end[pos]) {
		return nil
	}
	var out []PhaseSpan
	next := l.end[pos]
	for i := h; i >= 0; i = l.marks[i].prev {
		out = append([]PhaseSpan{{Phase: l.marks[i].phase, From: l.marks[i].t, To: next}}, out...)
		next = l.marks[i].t
	}
	return out
}

// TestLedgerBlocksMatchSliceReference interleaves many records whose
// chains cross several block boundaries — a record's marks land in
// different blocks and chain back across them — and checks every read
// path against the slice-backed referee, through a Reset and reuse.
func TestLedgerBlocksMatchSliceReference(t *testing.T) {
	const records = 600
	l := NewLedger(records)
	for round := 0; round < 2; round++ {
		if round > 0 {
			l.Reset(records)
		}
		ref := newSliceLedger(records)
		x := uint64(round + 11)
		rnd := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		now := 0.0
		for step := 0; len(ref.marks) < 3*markBlockSize+77; step++ {
			pos := rnd(records)
			now += float64(rnd(1000)) * 1e-6
			// Occasionally stamp slightly in the past to exercise the clamp.
			at := now - float64(rnd(3))*1e-3
			switch op := rnd(10); {
			case op < 6:
				p := Phase(rnd(NumPhases))
				if _, open := l.Current(pos); !open {
					l.Open(pos, at, p)
				} else {
					l.Mark(pos, at, p)
				}
				ref.stamp(pos, at, p)
			case op < 9:
				c := Cause(1 + rnd(NumCauses-1))
				l.Close(pos, at, c)
				ref.close(pos, at, c)
			default:
				p := Phase(rnd(NumPhases))
				l.Reopen(pos, p)
				ref.reopen(pos, p)
			}
		}
		if got, want := int(l.marks), len(ref.marks); got != want || len(l.blocks) < 3 {
			t.Fatalf("round %d: %d marks in %d blocks, reference %d marks", round, got, len(l.blocks), want)
		}
		for pos := 0; pos < records; pos++ {
			if g, w := l.Start(pos), ref.start(pos); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("record %d: Start %v, want %v", pos, g, w)
			}
			gp, gok := l.Current(pos)
			wok := ref.head[pos] >= 0
			if gok != wok || (wok && gp != ref.marks[ref.head[pos]].phase) {
				t.Fatalf("record %d: Current (%v, %v), reference open=%v", pos, gp, gok, wok)
			}
			if l.Closed(pos) != !math.IsNaN(ref.end[pos]) || l.Cause(pos) != ref.cause[pos] {
				t.Fatalf("record %d: closed/cause mismatch", pos)
			}
			gs, ws := l.Spans(pos, nil), ref.spans(pos)
			if len(gs) != len(ws) {
				t.Fatalf("record %d: %d spans, want %d", pos, len(gs), len(ws))
			}
			var want [NumPhases]float64
			for i := range ws {
				if gs[i] != ws[i] {
					t.Fatalf("record %d span %d: %+v, want %+v", pos, i, gs[i], ws[i])
				}
			}
			if len(ws) > 0 {
				// Durations accumulates newest-first, like the referee's
				// chain walk.
				for i := len(ws) - 1; i >= 0; i-- {
					want[ws[i].Phase] += ws[i].To - ws[i].From
				}
			}
			var got [NumPhases]float64
			if ok := l.Durations(pos, &got); ok != (len(ws) > 0) || got != want {
				t.Fatalf("record %d: Durations %v (ok %v), want %v", pos, got, ok, want)
			}
		}
	}
}

// TestLedgerColdStampingAllocs pins the block arena's cold cost:
// stamping N marks into a fresh ledger allocates at most ceil(N/B)
// blocks and at most 16·N bytes plus one block — no append-growth
// garbage. (A mark is 16 bytes.)
func TestLedgerColdStampingAllocs(t *testing.T) {
	const records = 3000
	const marksPer = 3
	const n = records * marksPer
	if sz := unsafe.Sizeof(attribMark{}); sz != 16 {
		t.Fatalf("attribMark is %d bytes, the bound below assumes 16", sz)
	}
	l := NewLedger(records)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for m := 0; m < marksPer; m++ {
		for i := 0; i < records; i++ {
			l.Mark(i, float64(m), Phase(m))
		}
	}
	runtime.ReadMemStats(&after)
	blocks := uint64((n + markBlockSize - 1) / markBlockSize)
	if got := after.Mallocs - before.Mallocs; got > blocks {
		t.Errorf("stamping %d marks made %d allocations, want <= %d blocks", n, got, blocks)
	}
	limit := uint64(16*n + 16*markBlockSize)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("stamping %d marks allocated %d bytes, want <= %d", n, got, limit)
	}
	if int(l.marks) != n {
		t.Fatalf("%d marks stamped, want %d", l.marks, n)
	}
}
