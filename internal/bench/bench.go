// Package bench is the experiment harness: one registered experiment per
// table and figure in the paper's evaluation (§4), each regenerating the
// corresponding series — who wins, by what factor, and where the crossovers
// fall — on the simulated platforms. Absolute values differ from the
// paper's testbeds; shapes are the reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"sort"
	"strings"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
)

// Row is one measurement: a named series, an x position (typically the
// process count) or a categorical label, and a value.
type Row struct {
	Series string
	X      int
	Label  string
	Y      float64
}

// Table is one regenerated figure/table.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Rows   []Row
	Notes  string
}

// Options tune an experiment run.
type Options struct {
	// Platform preset; experiments with a fixed platform (fig5: Edison)
	// override it.
	Platform *fabric.Params
	// MaxP caps the process-count sweeps (default 256).
	MaxP int
	// Quick shrinks workloads for smoke tests and testing.B wrappers.
	Quick bool
	// Stats, when non-nil, enables the obs subsystem for every job the
	// experiment runs and receives the merged counter snapshot of each,
	// labeled "<substrate>/np=<n>".
	Stats func(label string, snap *obs.Snapshot)
	// ScalingOut, when set, makes the "scaling" experiment write its
	// ScalingReport (flush-scan share, SRQ-stall share, per-image obs
	// memory vs P) as JSON to this path — the BENCH_scaling.json artifact.
	ScalingOut string
}

func (o Options) withDefaults() Options {
	if o.Platform == nil {
		o.Platform = fabric.Platform("fusion")
	}
	if o.MaxP == 0 {
		o.MaxP = 256
	}
	return o
}

// pSweep returns the power-of-two process counts for a sweep.
func (o Options) pSweep(min int) []int {
	var out []int
	for p := min; p <= o.MaxP; p *= 2 {
		out = append(out, p)
	}
	if o.Quick && len(out) > 3 {
		out = out[:3]
	}
	return out
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes the shape the paper reports, for EXPERIMENTS.md.
	Paper string
	Run   func(Options) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists every registered experiment in registration order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Format renders a table as aligned text: one column per series, one line
// per x value (or label).
func Format(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "# %s\n", t.Notes)
	}

	series := []string{}
	seen := map[string]bool{}
	for _, r := range t.Rows {
		if !seen[r.Series] {
			seen[r.Series] = true
			series = append(series, r.Series)
		}
	}
	type key struct {
		x     int
		label string
	}
	var keys []key
	keySeen := map[key]bool{}
	cell := map[key]map[string]float64{}
	for _, r := range t.Rows {
		k := key{r.X, r.Label}
		if !keySeen[k] {
			keySeen[k] = true
			keys = append(keys, k)
		}
		if cell[k] == nil {
			cell[k] = map[string]float64{}
		}
		cell[k][r.Series] = r.Y
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].x < keys[j].x })

	wide := len(t.XLabel)
	for _, k := range keys {
		if n := len(k.label); n > wide {
			wide = n
		}
	}
	col := 22
	for _, s := range series {
		if n := len(s) + 1; n > col {
			col = n
		}
	}
	fmt.Fprintf(&b, "%-*s", wide+2, t.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%*s", col, s)
	}
	fmt.Fprintf(&b, "   [%s]\n", t.YLabel)
	for _, k := range keys {
		name := k.label
		if name == "" {
			name = fmt.Sprintf("%d", k.x)
		}
		fmt.Fprintf(&b, "%-*s", wide+2, name)
		for _, s := range series {
			if v, ok := cell[k][s]; ok {
				fmt.Fprintf(&b, "%*.5g", col, v)
			} else {
				fmt.Fprintf(&b, "%*s", col, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCSV renders a table as CSV: id,series,x,label,y.
func FormatCSV(t *Table) string {
	var b strings.Builder
	b.WriteString("experiment,series,x,label,value\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%g\n", t.ID, r.Series, r.X, r.Label, r.Y)
	}
	return b.String()
}

// ideal extends a measured series with perfect scaling from its first
// point, as the paper's IDEAL-SCALE curves do.
func ideal(rows []Row, series string, ps []int) []Row {
	if len(rows) == 0 || len(ps) == 0 {
		return nil
	}
	base := -1.0
	baseP := 0
	for _, r := range rows {
		if r.Series == series && r.X == ps[0] {
			base, baseP = r.Y, r.X
			break
		}
	}
	if base < 0 {
		return nil
	}
	var out []Row
	for _, p := range ps {
		out = append(out, Row{Series: "IDEAL-SCALE", X: p, Y: base * float64(p) / float64(baseP)})
	}
	return out
}
