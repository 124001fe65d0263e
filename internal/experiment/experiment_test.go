package experiment

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/trace"
)

// fastOpt keeps integration tests quick: a reduced instruction budget
// still exercises every code path and preserves the qualitative trends.
func fastOpt(benches ...string) Options {
	return Options{Instructions: 60000, Seed: 3, Benchmarks: benches}
}

func TestRunOneAllSchemes(t *testing.T) {
	t.Parallel()
	for _, s := range append([]Scheme{SchemeNone}, ControlledSchemes()...) {
		res, err := RunOneContext(context.Background(), "gzip", s, fastOpt())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Metrics.Instructions != 60000 {
			t.Errorf("%s: retired %d", s, res.Metrics.Instructions)
		}
		if res.Scheme != string(s) {
			t.Errorf("scheme label = %q, want %q", res.Scheme, s)
		}
	}
}

func TestRunOneUnknownInputs(t *testing.T) {
	t.Parallel()
	if _, err := RunOneContext(context.Background(), "nope", SchemeNone, fastOpt()); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunOneContext(context.Background(), "gzip", Scheme("bogus"), fastOpt()); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestControlledSchemesSaveEnergy(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	opt.Instructions = 150000
	base, err := RunOneContext(context.Background(), "swim", SchemeNone, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ControlledSchemes() {
		run, err := RunOneContext(context.Background(), "swim", s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if run.Metrics.EnergyJ >= base.Metrics.EnergyJ {
			t.Errorf("%s did not save energy on swim: %g >= %g", s, run.Metrics.EnergyJ, base.Metrics.EnergyJ)
		}
	}
}

// TestExtensionSchemeThroughRegistry is the registry's proof of seam:
// pid-adaptive exists only as a plugin (internal/scheme/pidadaptive.go
// plus its controller), yet the harness runs it, labels it, caches it,
// and it behaves as a real DVFS scheme — saving energy against the
// baseline like the seed schemes do. No dispatch site in this package
// names it.
func TestExtensionSchemeThroughRegistry(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	opt.Instructions = 150000
	base, err := RunOneContext(context.Background(), "swim", SchemeNone, opt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunOneContext(context.Background(), "swim", Scheme("pid-adaptive"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scheme != "pid-adaptive" {
		t.Errorf("scheme label = %q", run.Scheme)
	}
	if run.Metrics.EnergyJ >= base.Metrics.EnergyJ {
		t.Errorf("pid-adaptive did not save energy on swim: %g >= %g", run.Metrics.EnergyJ, base.Metrics.EnergyJ)
	}
	// Extensions stay out of the default comparison: the core artifact
	// columns are part of the byte-stability contract.
	for _, s := range ControlledSchemes() {
		if s == "pid-adaptive" || s == SchemeGlobal {
			t.Fatalf("extension scheme %s leaked into the default set", s)
		}
	}
	// The Table-3 knob maps onto the extension's decision floor, and
	// its Validate hook rejects a negative one up front.
	opt.PIDIntervalTicks = -5
	if _, err := RunOneContext(context.Background(), "swim", Scheme("pid-adaptive"), opt); err == nil {
		t.Error("negative PIDIntervalTicks accepted")
	}
}

func TestMatrixAndFigures(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip", "adpcm_encode")
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 2 {
		t.Fatalf("matrix has %d benchmarks", len(m.Results))
	}
	for _, rep := range []Report{m.Figure9(), m.Figure10(), m.Figure11([]string{"adpcm_encode"})} {
		if len(rep.Lines) < 3 {
			t.Errorf("%s: too few lines: %v", rep.ID, rep.Lines)
		}
		if !strings.Contains(rep.String(), rep.ID) {
			t.Errorf("%s: report string missing ID", rep.ID)
		}
	}
	// The average row exists.
	if !strings.Contains(m.Figure9().Lines[len(m.Figure9().Lines)-1], "AVERAGE") {
		t.Error("figure 9 missing AVERAGE row")
	}
	// Controlled-scheme samples were dropped, baseline kept.
	if m.Results["gzip"][SchemeAdaptive].QueueSamples != nil {
		t.Error("controlled-run samples retained")
	}
	if len(m.Results["gzip"][SchemeNone].QueueSamples) == 0 {
		t.Error("baseline samples dropped")
	}
}

func TestTable1RendersConfig(t *testing.T) {
	t.Parallel()
	rep := Table1(DefaultOptions())
	s := rep.String()
	for _, want := range []string{"250", "1000", "0.65", "1.20", "Tl0 = 8, Tm0 = 50", "4/6/11", "20 INT, 16 FP, 16 LS", "80"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2ClassifiesFastAndSlow(t *testing.T) {
	t.Parallel()
	opt := fastOpt("adpcm_encode", "art", "gcc", "swim")
	opt.Instructions = 150000
	rep, classes, err := Table2(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 4 {
		t.Fatalf("classified %d benchmarks", len(classes))
	}
	byName := map[string]BenchClass{}
	for _, c := range classes {
		byName[c.Name] = c
	}
	// The designed-fast codecs must classify fast; the long-phase
	// SPEC codes must classify slow. (Other benchmarks may land either
	// way depending on their emergent micro-dynamics — the classifier
	// decides, exactly as in the paper.)
	if !byName["adpcm_encode"].Fast {
		t.Errorf("adpcm_encode not fast (share %.3f)", byName["adpcm_encode"].ShortShare)
	}
	if !byName["art"].Fast {
		t.Errorf("art not fast (share %.3f)", byName["art"].ShortShare)
	}
	if byName["gcc"].Fast {
		t.Errorf("gcc classified fast (share %.3f)", byName["gcc"].ShortShare)
	}
	if byName["swim"].Fast {
		t.Errorf("swim classified fast (share %.3f)", byName["swim"].ShortShare)
	}
	fg := FastGroup(classes)
	if len(fg) < 2 {
		t.Errorf("fast group = %v", fg)
	}
	if !strings.Contains(rep.String(), "FAST") {
		t.Error("table2 missing FAST rows")
	}
}

func TestFigure7ShowsDescentAndRecovery(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	opt.Instructions = 300000
	rep, err := Figure7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 10 {
		t.Fatalf("figure 7 too short: %d lines", len(rep.Lines))
	}
}

func TestFigure8SpectrumReport(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	opt.Instructions = 150000
	rep, err := Figure8(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "short-wavelength share") {
		t.Error("figure 8 missing share line")
	}
}

func TestTable3PIDSweep(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	opt.Instructions = 80000
	rep, err := Table3(context.Background(), opt, []string{"adpcm_encode"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 7 { // header + adaptive + 5 PID rows
		t.Errorf("table3 rows = %d, want 7:\n%s", len(rep.Lines), rep.String())
	}
	if _, err := Table3(context.Background(), opt, nil); err == nil {
		t.Error("empty fast group accepted")
	}
}

func TestTable4HardwareOrdering(t *testing.T) {
	t.Parallel()
	rep := Table4()
	if len(rep.Lines) != 4 {
		t.Fatalf("table4 rows = %d", len(rep.Lines))
	}
	s := rep.String()
	if !strings.Contains(s, "adaptive") || !strings.Contains(s, "pid") {
		t.Error("table4 missing schemes")
	}
}

func TestRemarksReport(t *testing.T) {
	t.Parallel()
	rep, err := RemarksReport()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"xi=", "Tm0/Tl0 in [2, 8]", "RK4 step response"} {
		if !strings.Contains(s, want) {
			t.Errorf("remarks missing %q", want)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	t.Parallel()
	opt := fastOpt("adpcm_encode")
	opt.Instructions = 50000
	rep, err := Ablation(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != len(AblationVariants())+1 {
		t.Errorf("ablation rows = %d, want %d", len(rep.Lines), len(AblationVariants())+1)
	}
}

func TestTransitionStylesRuns(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip")
	opt.Instructions = 50000
	rep, err := TransitionStyles(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 4 {
		t.Errorf("transition rows = %d, want 4", len(rep.Lines))
	}
	if !strings.Contains(rep.String(), "transmeta") {
		t.Error("missing transmeta rows")
	}
}

func TestMeanComparisonSubset(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip", "adpcm_encode")
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	all := m.MeanComparison(SchemeAdaptive, nil)
	one := m.MeanComparison(SchemeAdaptive, []string{"gzip"})
	if all == one {
		t.Error("subset mean equals full mean; subset ignored?")
	}
	if (m.MeanComparison(SchemeAdaptive, []string{})) != (powerComparison{}) {
		t.Error("empty subset should produce zero comparison")
	}
}

func TestSampleLimitApplied(t *testing.T) {
	t.Parallel()
	opt := fastOpt()
	cfg := opt.machine()
	if cfg.SampleLimit != 1<<17 {
		t.Errorf("sample limit = %d, want %d", cfg.SampleLimit, 1<<17)
	}
	if cfg.Seed != opt.Seed {
		t.Error("seed not propagated")
	}
	_ = mcd.DefaultConfig()
}

func TestGlobalSchemeRuns(t *testing.T) {
	t.Parallel()
	res, err := RunOneContext(context.Background(), "adpcm_encode", SchemeGlobal, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Coupled scaling: all three domains end at (nearly) the same
	// mean frequency by construction.
	fi := res.Domains[mcd.NameInt].MeanFreqMHz
	ff := res.Domains[mcd.NameFP].MeanFreqMHz
	fl := res.Domains[mcd.NameLS].MeanFreqMHz
	spread := max3(fi, ff, fl) - min3(fi, ff, fl)
	if spread > 50 {
		t.Errorf("coupled domains diverged: INT=%.0f FP=%.0f LS=%.0f", fi, ff, fl)
	}
}

func max3(a, b, c float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func TestPerDomainBeatsGlobalOnAsymmetricCode(t *testing.T) {
	t.Parallel()
	// Integer-only code with an idle FP unit: per-domain control slows
	// FP to the floor, coupled control cannot.
	opt := fastOpt()
	opt.Instructions = 150000
	base, err := RunOneContext(context.Background(), "gzip", SchemeNone, opt)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := RunOneContext(context.Background(), "gzip", SchemeGlobal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Domains[mcd.NameFP].MeanFreqMHz >= gl.Domains[mcd.NameFP].MeanFreqMHz {
		t.Errorf("per-domain FP frequency (%.0f) should undercut coupled (%.0f)",
			ad.Domains[mcd.NameFP].MeanFreqMHz, gl.Domains[mcd.NameFP].MeanFreqMHz)
	}
	ca := power.Compare(base.Metrics, ad.Metrics)
	cg := power.Compare(base.Metrics, gl.Metrics)
	if ca.EDPImprovement <= cg.EDPImprovement {
		t.Errorf("per-domain EDP %.2f%% should beat coupled %.2f%% on asymmetric code",
			100*ca.EDPImprovement, 100*cg.EDPImprovement)
	}
}

func TestGlobalComparisonReport(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip")
	opt.Instructions = 50000
	rep, err := GlobalComparison(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 4 { // two headers + 1 bench + MEAN
		t.Errorf("global report rows = %d, want 4:\n%s", len(rep.Lines), rep.String())
	}
}

func TestQRefSweepMonotoneEnergy(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gsm_decode")
	opt.Instructions = 60000
	rep, err := QRefSweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 8 {
		t.Fatalf("qref sweep rows = %d, want 8:\n%s", len(rep.Lines), rep.String())
	}
}

func TestInterfaceStudy(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gsm_decode")
	opt.Instructions = 40000
	rep, err := InterfaceStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 7 { // header + 3 windows x 2 policies
		t.Fatalf("interface rows = %d, want 7:\n%s", len(rep.Lines), rep.String())
	}
	if !strings.Contains(rep.String(), "token-ring") {
		t.Error("missing token-ring rows")
	}
}

func TestPartitionStudy(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip")
	opt.Instructions = 40000
	rep, err := PartitionStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 4 { // two headers + 1 bench + MEAN
		t.Fatalf("partition rows = %d:\n%s", len(rep.Lines), rep.String())
	}
	if !strings.Contains(rep.String(), "FE DVFS") {
		t.Error("missing front-end DVFS column")
	}
}

func TestDelaySweep(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gsm_decode")
	opt.Instructions = 30000
	rep, err := DelaySweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 16 { // header + 5x3 grid
		t.Fatalf("delay sweep rows = %d, want 16:\n%s", len(rep.Lines), rep.String())
	}
}

func TestFullSuiteSmoke(t *testing.T) {
	t.Parallel()
	// Every bundled benchmark completes under the adaptive scheme.
	opt := Options{Instructions: 15000, Seed: 7}
	for _, b := range trace.Names() {
		res, err := RunOneContext(context.Background(), b, SchemeAdaptive, opt)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.Metrics.Instructions != 15000 || res.Metrics.EnergyJ <= 0 {
			t.Errorf("%s: bad result %+v", b, res.Metrics)
		}
	}
}

func TestMatrixParallelMatchesSerialCell(t *testing.T) {
	t.Parallel()
	// A matrix cell must be identical to the same run done alone
	// (parallelism cannot leak state between simulations).
	opt := fastOpt("gzip", "swim")
	opt.Instructions = 20000
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := RunOneContext(context.Background(), "swim", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Results["swim"][SchemeAdaptive].Metrics != solo.Metrics {
		t.Errorf("matrix cell diverged from solo run:\n matrix %+v\n solo   %+v",
			m.Results["swim"][SchemeAdaptive].Metrics, solo.Metrics)
	}
}

func TestSummaryReport(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip", "adpcm_encode")
	opt.Instructions = 30000
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	classes := []BenchClass{
		{Name: "adpcm_encode", Fast: true},
		{Name: "gzip", Fast: false},
	}
	rep := Summary(m, classes)
	s := rep.String()
	for _, want := range []string{"suite average", "fast group", "decision-logic gates", "adaptive"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	t.Parallel()
	rep := Table4()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != rep.ID || len(back.Lines) != len(rep.Lines) || len(back.Notes) != len(rep.Notes) {
		t.Errorf("JSON round trip lost content: %+v", back)
	}
}

func TestSVGFigures(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip", "adpcm_encode")
	opt.Instructions = 40000
	svg7, err := Figure7SVG(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg7, "<svg") || !strings.Contains(svg7, "epic_decode") {
		t.Error("figure 7 SVG malformed")
	}
	svg8, err := Figure8SVG(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg8, "variance") {
		t.Error("figure 8 SVG malformed")
	}
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func() (string, error){
		"fig9":  m.Figure9SVG,
		"fig10": m.Figure10SVG,
		"fig11": func() (string, error) { return m.Figure11SVG([]string{"adpcm_encode"}) },
	} {
		svg, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(svg, "AVERAGE") || !strings.Contains(svg, "adaptive") {
			t.Errorf("%s SVG missing content", name)
		}
	}
}

func TestSeedStudy(t *testing.T) {
	t.Parallel()
	opt := fastOpt("gzip")
	opt.Instructions = 30000
	rep, err := SeedStudy(context.Background(), opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 2 {
		t.Fatalf("seed study rows = %d:\n%s", len(rep.Lines), rep.String())
	}
	if !strings.Contains(rep.String(), "±") {
		t.Error("missing dispersion column")
	}
	if _, err := SeedStudy(context.Background(), opt, 1); err == nil {
		t.Error("single-seed study accepted")
	}
}
