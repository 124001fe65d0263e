package experiment

import (
	"context"
	"fmt"
	"math"

	"mcddvfs/internal/mcd"
	"mcddvfs/internal/plot"
	"mcddvfs/internal/spectrum"
)

// Figure7SVG renders the epic_decode FP-domain frequency trajectory as
// an SVG line chart.
func Figure7SVG(ctx context.Context, opt Options) (string, error) {
	opt = opt.withDefaults()
	res, err := RunOneContext(ctx, "epic_decode", SchemeAdaptive, opt)
	if err != nil {
		return "", err
	}
	return figure7SVG(opt, res)
}

// figure7SVG charts Figure 7 from the adaptive epic_decode run.
func figure7SVG(opt Options, res *mcd.Result) (string, error) {
	tr := res.FreqTrace[mcd.NameFP]
	if len(tr) < 2 {
		// Too few retired instructions to trace: a property of the
		// requested run, so it joins the invalid-spec class.
		return "", invalidSpec(fmt.Errorf("experiment: frequency trace too short (%d points)", len(tr)))
	}
	fmax := opt.machine().Range.MaxMHz
	s := plot.Series{Name: "FP domain"}
	for _, p := range tr {
		s.X = append(s.X, float64(p.Insts))
		s.Y = append(s.Y, p.MHz/fmax)
	}
	c := &plot.LineChart{
		Title:  "Figure 7 — adaptive frequency settings, FP domain, epic_decode",
		XLabel: "instructions retired",
		YLabel: "relative frequency (f/fmax)",
		YMin:   0, YMax: 1.05,
		Series: []plot.Series{s},
	}
	return c.SVG()
}

// Figure8SVG renders the INT-queue variance spectrum of epic_decode as
// an SVG bar chart over log-spaced wavelength buckets.
func Figure8SVG(ctx context.Context, opt Options) (string, error) {
	opt = opt.withDefaults()
	res, err := RunOneContext(ctx, "epic_decode", SchemeNone, opt)
	if err != nil {
		return "", err
	}
	return figure8SVG(res)
}

// figure8SVG charts Figure 8 from the no-DVFS epic_decode run.
func figure8SVG(res *mcd.Result) (string, error) {
	sp, err := spectrum.Multitaper(res.QueueSamples[mcd.NameInt].Floats(), 5)
	if err != nil {
		return "", err
	}
	edges := []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536}
	var labels []string
	var vals []float64
	for i := 0; i+1 < len(edges); i++ {
		labels = append(labels, fmt.Sprintf("%s-%s", wl(edges[i]), wl(edges[i+1])))
		vals = append(vals, sp.BandVariance(edges[i], edges[i+1]))
	}
	c := &plot.BarChart{
		Title:  "Figure 8 — variance spectrum, INT queue occupancy, epic_decode",
		YLabel: "variance (entries²)",
		Labels: labels,
		Groups: []plot.BarGroup{{Name: "variance", Values: vals}},
		Width:  860,
	}
	return c.SVG()
}

func wl(v float64) string {
	if v >= 1024 {
		return fmt.Sprintf("%.0fk", v/1024)
	}
	return fmt.Sprintf("%.0f", v)
}

// comparisonSVG renders one of the Figure 9–11 grouped-bar comparisons.
func (m *Matrix) comparisonSVG(title, ylabel string, benchmarks []string, sel comparisonSelector) (string, error) {
	labels := append(append([]string{}, benchmarks...), "AVERAGE")
	groups := make([]plot.BarGroup, 0, 3)
	for _, s := range m.schemes() {
		g := plot.BarGroup{Name: string(s)}
		for _, b := range benchmarks {
			c := m.Compare(b, s)
			g.Values = append(g.Values, round2(100*sel(c.EnergySaving, c.PerfDegradation, c.EDPImprovement)))
		}
		mean := m.MeanComparison(s, benchmarks)
		g.Values = append(g.Values, round2(100*sel(mean.EnergySaving, mean.PerfDegradation, mean.EDPImprovement)))
		groups = append(groups, g)
	}
	c := &plot.BarChart{
		Title:            title,
		YLabel:           ylabel,
		YSuffix:          "%",
		Labels:           labels,
		Groups:           groups,
		LabelGroupValues: "AVERAGE",
	}
	return c.SVG()
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// Figure9SVG renders the energy-savings comparison.
func (m *Matrix) Figure9SVG() (string, error) {
	return m.comparisonSVG("Figure 9 — energy savings vs no-DVFS baseline", "energy saving",
		m.Benchmarks, func(sav, perf, edp float64) float64 { return sav })
}

// Figure10SVG renders the performance-degradation comparison.
func (m *Matrix) Figure10SVG() (string, error) {
	return m.comparisonSVG("Figure 10 — performance degradation vs no-DVFS baseline", "degradation",
		m.Benchmarks, func(sav, perf, edp float64) float64 { return perf })
}

// Figure11SVG renders the fast-group EDP comparison.
func (m *Matrix) Figure11SVG(fastGroup []string) (string, error) {
	return m.comparisonSVG("Figure 11 — EDP improvement, fast-variation group", "EDP improvement",
		fastGroup, func(sav, perf, edp float64) float64 { return edp })
}
