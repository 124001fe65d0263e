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
