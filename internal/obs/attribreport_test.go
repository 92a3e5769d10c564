package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// denseAttribBuilder is the referee for AttribBuilder: a dense
// implementation that keeps every per-phase duration (zeros included),
// sums them at Report time, and sorts a copy for the quantiles. The
// sparse builder must reproduce its Report exactly.
type denseAttribBuilder struct {
	groups []*denseAttribAgg
	index  map[string]int
}

type denseAttribAgg struct {
	model, level string
	requests     int64
	completed    int64
	violations   int64
	domPhase     [NumPhases]int64
	domCause     [NumCauses]int64
	samples      [NumPhases][]float64
}

func newDenseAttribBuilder() *denseAttribBuilder {
	return &denseAttribBuilder{index: make(map[string]int)}
}

func (b *denseAttribBuilder) Add(model, level string, dur *[NumPhases]float64, cause Cause, violated bool) {
	key := model + "\x00" + level
	i, ok := b.index[key]
	if !ok {
		i = len(b.groups)
		b.index[key] = i
		b.groups = append(b.groups, &denseAttribAgg{model: model, level: level})
	}
	g := b.groups[i]
	g.requests++
	completed := cause == CauseDone
	if completed {
		g.completed++
	}
	if !completed {
		violated = true
	}
	for p := 0; p < NumPhases; p++ {
		g.samples[p] = append(g.samples[p], dur[p])
	}
	if !violated {
		return
	}
	g.violations++
	if !completed {
		g.domCause[cause]++
		return
	}
	best := 0
	for p := 1; p < NumPhases; p++ {
		if dur[p] > dur[best] {
			best = p
		}
	}
	g.domPhase[best]++
}

// denseQuantile is the nearest-rank q-quantile of sorted samples.
func denseQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Report renders the groups only: the occupancy join does not depend
// on how samples are stored, so the fuzz compares Report(nil).
func (b *denseAttribBuilder) Report() *AttribReport {
	r := &AttribReport{}
	sort.Slice(b.groups, func(i, j int) bool {
		gi, gj := b.groups[i], b.groups[j]
		if gi.model != gj.model {
			return gi.model < gj.model
		}
		return gi.level < gj.level
	})
	for i, g := range b.groups {
		b.index[g.model+"\x00"+g.level] = i
	}
	for _, g := range b.groups {
		out := AttribGroup{
			Model:      g.model,
			Level:      g.level,
			Requests:   g.requests,
			Completed:  g.completed,
			Violations: g.violations,
		}
		for p := 0; p < NumPhases; p++ {
			if g.domPhase[p] > 0 {
				out.Dominant = append(out.Dominant, CauseCount{Cause: Phase(p).String(), Count: g.domPhase[p]})
			}
		}
		for c := 0; c < NumCauses; c++ {
			if g.domCause[c] > 0 {
				out.Dominant = append(out.Dominant, CauseCount{Cause: Cause(c).String(), Count: g.domCause[c]})
			}
		}
		for p := 0; p < NumPhases; p++ {
			samples := g.samples[p]
			var sum float64
			count := int64(0)
			for _, v := range samples {
				sum += v
				if v > 0 {
					count++
				}
			}
			sorted := make([]float64, len(samples))
			copy(sorted, samples)
			sort.Float64s(sorted)
			ps := PhaseStat{
				Phase: Phase(p).String(),
				Count: count,
				Sum:   sum,
				P50:   denseQuantile(sorted, 0.50),
				P99:   denseQuantile(sorted, 0.99),
			}
			if len(samples) > 0 {
				ps.Mean = sum / float64(len(samples))
			}
			out.Phases = append(out.Phases, ps)
		}
		r.Groups = append(r.Groups, out)
	}
	return r
}

// sameReport reports whether two reports are identical: byte-identical
// JSON (or the same encoding error — NaN and ±Inf are not JSON), and
// the same Go-syntax rendering, which covers the non-finite values the
// encoder refuses.
func sameReport(t *testing.T, got, want *AttribReport) {
	t.Helper()
	gj, gerr := got.JSON()
	wj, werr := want.JSON()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || string(gj) != string(wj) {
		t.Fatalf("report JSON differs:\n got %s (err %v)\nwant %s (err %v)", gj, gerr, wj, werr)
	}
	if g, w := fmt.Sprintf("%#v", got.Groups), fmt.Sprintf("%#v", want.Groups); g != w {
		t.Fatalf("report differs:\n got %s\nwant %s", g, w)
	}
}

// attribPalette is the duration alphabet the fuzz draws from: zeros
// dominate (as in real runs), plus negatives, NaN and both infinities.
// Negative zero is excluded: sort.Float64s is not stable, so the dense
// reference's choice between -0 and +0 at a zero rank is unspecified,
// and Ledger.Durations never produces -0 (its sums start at +0).
var attribPalette = []float64{0, 0, 0, 0, 1e-6, 2.5e-3, 0.5, 1, 1, -1e-9, -3,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}

var attribNames = [...]string{"m-a", "m-b", "m-c"}
var attribLevels = [...]string{"QoS-S", "QoS-H"}

// FuzzAttribBuilder drives the sparse builder and the dense referee with
// the same stream of rows and requires identical Reports, including
// Reports taken mid-stream followed by further Adds.
func FuzzAttribBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 11, 12, 13, 14, 15, 1, 2, 3, 4})
	f.Add([]byte("attribution sparse builder vs dense reference, several groups"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sparse, dense := NewAttribBuilder(), newDenseAttribBuilder()
		const row = 2 + NumPhases
		for len(data) >= row {
			hdr := data[0]
			if hdr&0x80 != 0 {
				// Report mid-stream, then keep adding to both.
				sameReport(t, sparse.Report(nil), dense.Report())
			}
			var dur [NumPhases]float64
			for p := range dur {
				b := data[2+p]
				if b&0x80 != 0 {
					// Arbitrary finite or special bit patterns, minus -0.
					var raw [8]byte
					raw[7], raw[6], raw[0] = b, data[1], hdr
					v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
					if v == 0 {
						v = 0
					}
					dur[p] = v
				} else {
					dur[p] = attribPalette[int(b)%len(attribPalette)]
				}
			}
			model := attribNames[int(hdr)%len(attribNames)]
			level := attribLevels[int(hdr>>2)%len(attribLevels)]
			cause := Cause(int(data[1]) % NumCauses)
			violated := data[1]&0x40 != 0
			sparse.Add(model, level, &dur, cause, violated)
			dense.Add(model, level, &dur, cause, violated)
			data = data[row:]
		}
		sameReport(t, sparse.Report(nil), dense.Report())
	})
}

// TestAttribBuilderMatchesDense is the deterministic counterpart of the
// fuzz target: thousands of rows with realistic sparsity, long enough
// that p50 and p99 land on spliced zeros as well as on nonzero samples.
func TestAttribBuilderMatchesDense(t *testing.T) {
	sparse, dense := NewAttribBuilder(), newDenseAttribBuilder()
	x := uint64(1)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 5000; i++ {
		var dur [NumPhases]float64
		for p := range dur {
			if next()%4 == 0 {
				dur[p] = float64(next()%1000) * 1e-6
			}
		}
		if i%97 == 0 {
			dur[PhaseFaultStall] = -1e-9
		}
		model := attribNames[next()%uint64(len(attribNames))]
		level := attribLevels[next()%uint64(len(attribLevels))]
		cause := Cause(next() % uint64(NumCauses))
		violated := next()%3 == 0
		sparse.Add(model, level, &dur, cause, violated)
		dense.Add(model, level, &dur, cause, violated)
		if i == 2500 {
			sameReport(t, sparse.Report(nil), dense.Report())
		}
	}
	sameReport(t, sparse.Report(nil), dense.Report())
}

// TestAttribBuilderAddAllocs pins the interned-group fast path: folding
// a row into an existing group allocates nothing beyond the amortized
// growth of its sparse sample slices, and an all-zero row (the common
// case) nothing at all.
func TestAttribBuilderAddAllocs(t *testing.T) {
	b := NewAttribBuilder()
	model, level := "ResNet-50", "QoS-M"
	var zero [NumPhases]float64
	b.Add(model, level, &zero, CauseDone, false)
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Add(model, level, &zero, CauseDone, false)
	}); allocs != 0 {
		t.Fatalf("AttribBuilder.Add of an all-zero row: %.1f allocs/op, want 0", allocs)
	}
}
