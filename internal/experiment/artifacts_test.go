package experiment

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestRobustnessEmptyBenchmarksIsOmitted: an empty benchmark list
// selects the robustness sweep's own four benchmarks, exactly as an
// omitted one does, not the whole suite.
func TestRobustnessEmptyBenchmarksIsOmitted(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	omitted := Options{Instructions: 2000, Seed: 1, Schemes: []Scheme{SchemeAdaptive}}
	want, _, err := RenderArtifactContext(ctx, "robustness", FormatText, uncached(omitted))
	if err != nil {
		t.Fatal(err)
	}
	// Both spellings share a render key; a harness of its own makes the
	// second one render rather than replay the first.
	empty := omitted
	empty.Benchmarks = []string{}
	got, _, err := RenderArtifactContext(ctx, "robustness", FormatText, uncached(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("robustness with an empty benchmark list differs from an omitted one:\n%s\nvs\n%s", got, want)
	}
}

// TestRenderChecksUpFront: RenderKey and RenderArtifactContext reject
// the same requests, before anything simulates, as ErrInvalidSpec.
func TestRenderChecksUpFront(t *testing.T) {
	t.Parallel()
	def := DefaultOptions()
	with := func(mut func(*Options)) Options {
		opt := def
		mut(&opt)
		return opt
	}
	cases := []struct {
		name   string
		id     string
		format ArtifactFormat
		opt    Options
	}{
		{"unknown artifact", "fig12", FormatText, def},
		{"unknown format", "fig9", "pdf", def},
		{"svg of a table", "table1", FormatSVG, def},
		{"negative instructions", "fig9", FormatText, with(func(o *Options) { o.Instructions = -1 })},
		{"negative pid interval without pid", "fig9", FormatText, with(func(o *Options) {
			o.PIDIntervalTicks, o.Schemes = -1, []Scheme{SchemeAdaptive}
		})},
		{"unknown benchmark", "fig9", FormatText, with(func(o *Options) { o.Benchmarks = []string{"quake3"} })},
		{"baseline-only subset on table1", "table1", FormatText, with(func(o *Options) { o.Schemes = []Scheme{SchemeNone} })},
		{"negative cores", "fig9", FormatText, with(func(o *Options) { o.Cores = -1 })},
		{"cap without capping governor", "fig9", FormatText, with(func(o *Options) { o.Governor, o.PowerCapW = "none", 30 })},
		{"fault intensity outside [0,1]", "robustness", FormatText, with(func(o *Options) { o.FaultIntensities = []float64{0, 2} })},
	}
	for _, tc := range cases {
		if _, err := RenderKey(tc.id, tc.format, tc.opt); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: RenderKey = %v, want ErrInvalidSpec", tc.name, err)
		}
		if _, _, err := RenderArtifactContext(context.Background(), tc.id, tc.format, tc.opt); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: RenderArtifactContext = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

// TestFaultIntensitiesKey: the fault-intensity grid enters the render
// key only when set — an empty grid keys as an omitted one, so every
// key without one is unchanged — and a set grid moves it.
func TestFaultIntensitiesKey(t *testing.T) {
	t.Parallel()
	key := func(levels []float64) string {
		t.Helper()
		opt := DefaultOptions()
		opt.FaultIntensities = levels
		k, err := RenderKey("robustness", FormatText, opt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	omitted := key(nil)
	if key([]float64{}) != omitted {
		t.Error("an empty fault-intensity grid keys apart from an omitted one")
	}
	if key([]float64{0, 1}) == omitted {
		t.Error("a fault-intensity grid does not move the render key")
	}
	if key([]float64{0, 1}) == key([]float64{0, 0.5, 1}) {
		t.Error("two fault-intensity grids share a render key")
	}
}

// TestSweepVariantsShareBaseline: a controller sweep runs its no-DVFS
// baseline once per benchmark, not once per variant — a run without
// DVFS reads no controller knob, so the variants' baselines are one
// simulation.
func TestSweepVariantsShareBaseline(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		id       string
		variants int
	}{
		{"ablation", len(AblationVariants())},
		{"qref", 7},
		{"delays", 15},
		{"table3", 6}, // adaptive plus five PID intervals
	} {
		opt := uncached(Options{Instructions: 2000, Seed: 1, Benchmarks: []string{"adpcm_encode"}})
		if _, _, err := RenderArtifactContext(context.Background(), tc.id, FormatText, opt); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if _, misses := opt.Harness.cacheStats(); misses != uint64(tc.variants+1) {
			t.Errorf("%s: %d simulations, want %d variants plus one shared baseline", tc.id, misses, tc.variants)
		}
	}
}
