package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Attribution aggregation (DESIGN.md §14): the builder folds per-request
// phase-duration vectors and terminal causes into per-model × per-QoS
// groups, computes dominant-cause histograms and per-phase p50/p99, and
// joins the result with per-chip occupancy accounting into one
// AttribReport with deterministic JSON and Table renderings.

// PhaseStat summarizes one phase across every request in a group.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Count int64   `json:"count"` // requests with >0 time in this phase
	Sum   float64 `json:"sum_s"`
	Mean  float64 `json:"mean_s"` // over all requests in the group
	P50   float64 `json:"p50_s"`
	P99   float64 `json:"p99_s"`
}

// CauseCount is one bar of a group's dominant-cause histogram.
type CauseCount struct {
	Cause string `json:"cause"`
	Count int64  `json:"count"`
}

// AttribGroup is the per-model × per-QoS attribution breakdown.
type AttribGroup struct {
	Model    string `json:"model"`
	Level    string `json:"level"`
	Requests int64  `json:"requests"`
	// Completed counts requests that finished (cause done); the rest
	// were shed or rejected.
	Completed int64 `json:"completed"`
	// Violations counts SLA misses: every non-completed request plus
	// completed requests that finished after their deadline.
	Violations int64 `json:"violations"`
	// Dominant is the violation histogram by dominant cause: for
	// requests that never completed, the terminal cause; for late
	// completions, the phase that consumed the most time (ties break to
	// the earlier phase in pipeline order).
	Dominant []CauseCount `json:"dominant,omitempty"`
	Phases   []PhaseStat  `json:"phases"`
}

// UtilRow is one chip's (or the fleet's) occupancy split in unit-cycles.
type UtilRow struct {
	Chip        int     `json:"chip"` // -1 for the fleet rollup
	Units       int64   `json:"units"`
	Horizon     int64   `json:"horizon_cycles"`
	Busy        int64   `json:"busy_cycles"`
	Idle        int64   `json:"idle_cycles"`
	Faulted     int64   `json:"faulted_cycles"`
	Reconfig    int64   `json:"reconfig_cycles"`
	Utilization float64 `json:"utilization"`
	Pressure    float64 `json:"pressure"`
}

// AttribReport is the full attribution artifact: violation breakdowns
// per model × QoS level plus the fleet utilization table.
type AttribReport struct {
	Groups []AttribGroup `json:"groups"`
	Chips  []UtilRow     `json:"chips,omitempty"`
	Fleet  *UtilRow      `json:"fleet,omitempty"`
}

// attribAgg accumulates one group's samples before summarization.
// Per-phase sums and >0 counts fold online in Add order. Only nonzero
// durations are kept for the quantiles and the zeros are just counted:
// most requests spend zero time in most phases.
type attribAgg struct {
	model, level string
	requests     int64
	completed    int64
	violations   int64
	domPhase     [NumPhases]int64
	domCause     [NumCauses]int64
	sum          [NumPhases]float64
	positive     [NumPhases]int64
	zeros        [NumPhases]int
	nonzero      [NumPhases][]float64
}

// attribKey interns a group without building a joined string per Add.
type attribKey struct{ model, level string }

// AttribBuilder folds per-request attribution rows into groups. Groups
// are interned on first sight and sorted at Report time, so insertion
// order never leaks into the artifact.
type AttribBuilder struct {
	groups []*attribAgg
	index  map[attribKey]int
}

// NewAttribBuilder returns an empty builder.
func NewAttribBuilder() *AttribBuilder {
	return &AttribBuilder{index: make(map[attribKey]int)}
}

func (b *AttribBuilder) group(model, level string) *attribAgg {
	key := attribKey{model, level}
	if i, ok := b.index[key]; ok {
		return b.groups[i]
	}
	g := &attribAgg{model: model, level: level}
	b.index[key] = len(b.groups)
	b.groups = append(b.groups, g)
	return g
}

// Add folds one request into its model × level group. dur is the
// request's per-phase duration vector; cause its terminal cause;
// violated whether it missed its SLA (always true for non-completed
// requests).
func (b *AttribBuilder) Add(model, level string, dur *[NumPhases]float64, cause Cause, violated bool) {
	g := b.group(model, level)
	g.requests++
	completed := cause == CauseDone
	if completed {
		g.completed++
	}
	if !completed {
		violated = true
	}
	for p, v := range dur {
		g.sum[p] += v
		if v > 0 {
			g.positive[p]++
		}
		if v == 0 {
			g.zeros[p]++
		} else {
			g.nonzero[p] = append(g.nonzero[p], v)
		}
	}
	if !violated {
		return
	}
	g.violations++
	if !completed {
		g.domCause[cause]++
		return
	}
	// Dominant phase: argmax duration, earlier phase wins ties.
	best := 0
	for p := 1; p < NumPhases; p++ {
		if dur[p] > dur[best] {
			best = p
		}
	}
	g.domPhase[best]++
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// sample multiset made of nonzero (sorted by sort.Float64s: NaNs first,
// then ascending) plus zeros copies of 0. The zeros belong at the first
// v > 0 position, so the answer is read off the spliced sequence
// without materializing it — exactly the dense sort's element.
func quantile(nonzero []float64, zeros int, q float64) float64 {
	n := len(nonzero) + zeros
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	i := rank - 1
	k := sort.Search(len(nonzero), func(j int) bool { return nonzero[j] > 0 })
	switch {
	case i < k:
		return nonzero[i]
	case i < k+zeros:
		return 0
	default:
		return nonzero[i-zeros]
	}
}

// utilRow converts one accountant into a report row.
func utilRow(chip int, o *Occupancy) UtilRow {
	return UtilRow{
		Chip:        chip,
		Units:       o.Units,
		Horizon:     o.Horizon,
		Busy:        o.Busy,
		Idle:        o.Idle,
		Faulted:     o.Faulted,
		Reconfig:    o.Reconfig,
		Utilization: o.Utilization(),
		Pressure:    o.Pressure(),
	}
}

// Report summarizes the folded groups, joined with per-chip occupancy
// accountants (may be empty). The accountants are copied and padded to a
// common horizon before the fleet rollup, so callers' values are not
// mutated. Output ordering is fully deterministic: groups sort by
// (model, level), phases and causes render in enum order.
func (b *AttribBuilder) Report(occs []*Occupancy) *AttribReport {
	r := &AttribReport{}
	sort.Slice(b.groups, func(i, j int) bool {
		gi, gj := b.groups[i], b.groups[j]
		if gi.model != gj.model {
			return gi.model < gj.model
		}
		return gi.level < gj.level
	})
	// Re-key the index after sorting so the builder stays usable.
	for i, g := range b.groups {
		b.index[attribKey{g.model, g.level}] = i
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
			// In-place sort: the quantiles need order, the folded sum
			// does not, and a later Add simply appends unsorted again.
			sort.Float64s(g.nonzero[p])
			ps := PhaseStat{
				Phase: Phase(p).String(),
				Count: g.positive[p],
				Sum:   g.sum[p],
				P50:   quantile(g.nonzero[p], g.zeros[p], 0.50),
				P99:   quantile(g.nonzero[p], g.zeros[p], 0.99),
			}
			if g.requests > 0 {
				ps.Mean = g.sum[p] / float64(g.requests)
			}
			out.Phases = append(out.Phases, ps)
		}
		r.Groups = append(r.Groups, out)
	}
	if len(occs) > 0 {
		var h int64
		for _, o := range occs {
			if o != nil && o.Horizon > h {
				h = o.Horizon
			}
		}
		fleet := &Occupancy{}
		for i, o := range occs {
			if o == nil {
				continue
			}
			padded := *o
			padded.PadTo(h)
			r.Chips = append(r.Chips, utilRow(i, &padded))
			fleet.Merge(&padded)
		}
		fr := utilRow(-1, fleet)
		r.Fleet = &fr
	}
	return r
}

// JSON encodes the report deterministically (stable field order, sorted
// groups, trailing newline).
func (r *AttribReport) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadAttribReport decodes a report previously encoded with JSON.
func LoadAttribReport(data []byte) (*AttribReport, error) {
	r := &AttribReport{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Text renders the report with the shared Table renderer: one breakdown
// table (per group × phase) with the dominant-cause histogram inline,
// then the fleet utilization table.
func (r *AttribReport) Text() string {
	var buf bytes.Buffer
	t := NewTable("model", "qos", "reqs", "done", "viol", "phase", "count", "sum(s)", "mean(s)", "p50(s)", "p99(s)").AlignLeft(1, 5)
	for _, g := range r.Groups {
		first := true
		for _, ps := range g.Phases {
			if ps.Count == 0 && ps.Sum == 0 {
				continue
			}
			head := []string{"", "", "", "", ""}
			if first {
				head = []string{
					g.Model, g.Level,
					fmt.Sprintf("%d", g.Requests),
					fmt.Sprintf("%d", g.Completed),
					fmt.Sprintf("%d", g.Violations),
				}
				first = false
			}
			t.Row(append(head,
				ps.Phase,
				fmt.Sprintf("%d", ps.Count),
				fmt.Sprintf("%.6f", ps.Sum),
				fmt.Sprintf("%.6f", ps.Mean),
				fmt.Sprintf("%.6f", ps.P50),
				fmt.Sprintf("%.6f", ps.P99),
			)...)
		}
		if first {
			// No phase saw any time; still show the group line.
			t.Row(g.Model, g.Level,
				fmt.Sprintf("%d", g.Requests),
				fmt.Sprintf("%d", g.Completed),
				fmt.Sprintf("%d", g.Violations))
		}
	}
	buf.WriteString(t.String())
	wroteDom := false
	for _, g := range r.Groups {
		for _, d := range g.Dominant {
			if !wroteDom {
				buf.WriteString("\ndominant causes of SLA violations:\n")
				wroteDom = true
			}
			fmt.Fprintf(&buf, "  %s %s: %s ×%d\n", g.Model, g.Level, d.Cause, d.Count)
		}
	}
	if len(r.Chips) > 0 || r.Fleet != nil {
		buf.WriteString("\n")
		ut := NewTable("chip", "units", "horizon", "busy", "idle", "faulted", "reconfig", "util", "pressure")
		row := func(u *UtilRow, name string) {
			ut.Row(name,
				fmt.Sprintf("%d", u.Units),
				fmt.Sprintf("%d", u.Horizon),
				fmt.Sprintf("%d", u.Busy),
				fmt.Sprintf("%d", u.Idle),
				fmt.Sprintf("%d", u.Faulted),
				fmt.Sprintf("%d", u.Reconfig),
				fmt.Sprintf("%.4f", u.Utilization),
				fmt.Sprintf("%.4f", u.Pressure),
			)
		}
		for i := range r.Chips {
			row(&r.Chips[i], fmt.Sprintf("chip%d", r.Chips[i].Chip))
		}
		if r.Fleet != nil {
			row(r.Fleet, "fleet")
		}
		buf.WriteString(ut.String())
	}
	return buf.String()
}
