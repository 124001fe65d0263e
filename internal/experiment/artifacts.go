package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mcddvfs/internal/trace"
)

// The artifact registry: one stable catalog of renderable experiment
// outputs shared by cmd/experiments' batch mode, the mcdserve HTTP
// service, and the public API. Rendering here is byte-identical to the
// CLI's -out files — txt is Report.String(), json is the two-space
// MarshalIndent of the Report, svg is the figure's SVG — so an
// artifact fetched over HTTP diffs clean against one written by a
// batch run from the same options (the CI parity gate relies on it).

// ArtifactFormat selects an artifact encoding.
type ArtifactFormat string

// The supported encodings.
const (
	FormatText ArtifactFormat = "txt"
	FormatJSON ArtifactFormat = "json"
	FormatSVG  ArtifactFormat = "svg"
)

// ContentType returns the HTTP content type for the format (empty for
// unknown formats).
func (f ArtifactFormat) ContentType() string {
	switch f {
	case FormatText:
		return "text/plain; charset=utf-8"
	case FormatJSON:
		return "application/json"
	case FormatSVG:
		return "image/svg+xml"
	}
	return ""
}

// ArtifactInfo describes one renderable artifact.
type ArtifactInfo struct {
	// ID is the stable identifier (the CLI's -only vocabulary).
	ID string
	// Title is a one-line description.
	Title string
	// SVG reports whether the artifact also renders as a figure.
	SVG bool
}

// artifactCatalog lists every registry artifact in display order. The
// IDs match cmd/experiments -only; the sweep-style studies (ablation,
// qref, seeds, ...) stay CLI-only for now — they take bespoke
// benchmark lists rather than Options.
var artifactCatalog = []ArtifactInfo{
	{ID: "table1", Title: "Summary of all simulation parameters"},
	{ID: "table2", Title: "Benchmark classification (fast/slow-varying)"},
	{ID: "fig7", Title: "Adaptive frequency settings, FP domain, epic_decode", SVG: true},
	{ID: "fig8", Title: "INT-queue variance spectrum, epic_decode", SVG: true},
	{ID: "fig9", Title: "Energy savings vs no-DVFS baseline", SVG: true},
	{ID: "fig10", Title: "Performance degradation vs no-DVFS baseline", SVG: true},
	{ID: "fig11", Title: "EDP improvement, fast-varying group", SVG: true},
	{ID: "summary", Title: "Headline means vs the paper's reported results"},
	{ID: "robustness", Title: "EDP degradation vs control-loop fault intensity"},
	{ID: "capsweep", Title: "Chip EDP and per-core throughput vs power budget, per governor", SVG: true},
	{ID: "captransient", Title: "Chip power-budget reallocation transient (integral-gain governor)"},
}

// Artifacts returns the artifact catalog in stable display order.
func Artifacts() []ArtifactInfo {
	out := make([]ArtifactInfo, len(artifactCatalog))
	copy(out, artifactCatalog)
	return out
}

// artifactIDList renders the catalog IDs for error messages.
func artifactIDList() string {
	ids := make([]string, len(artifactCatalog))
	for i, a := range artifactCatalog {
		ids[i] = a.ID
	}
	return strings.Join(ids, ", ")
}

// lookupArtifact resolves id against the catalog; unknown IDs fail as
// ErrInvalidSpec listing what is available.
func lookupArtifact(id string) (ArtifactInfo, error) {
	for _, a := range artifactCatalog {
		if a.ID == id {
			return a, nil
		}
	}
	return ArtifactInfo{}, invalidSpec(fmt.Errorf("experiment: unknown artifact %q (available: %s)", id, artifactIDList()))
}

// robustnessBenchmarks mirrors cmd/experiments' -faults selection: the
// benchmarks the sweep runs when the caller does not narrow them.
var robustnessBenchmarks = []string{"adpcm_encode", "gsm_decode", "gzip", "swim"}

// prepareRender makes every check a render can fail before it
// simulates anything, and returns the format's content type and opt
// prepared as a runSpec. It checks the artifact and format against the
// catalog, then the options as given: the instruction budget, the PID
// interval (whether or not the scheme subset runs PID), the benchmark
// and scheme selections, and the machine and chip checks newRunSpec
// records.
func prepareRender(id string, format ArtifactFormat, opt Options) (string, *runSpec, error) {
	info, err := lookupArtifact(id)
	if err != nil {
		return "", nil, err
	}
	ctype := format.ContentType()
	if ctype == "" {
		return "", nil, invalidSpec(fmt.Errorf("experiment: unknown artifact format %q (available: txt, json, svg)", format))
	}
	if format == FormatSVG && !info.SVG {
		return "", nil, invalidSpec(fmt.Errorf("experiment: artifact %q has no SVG rendering", id))
	}
	if opt.Instructions < 0 {
		return "", nil, invalidSpec(fmt.Errorf("experiment: negative instruction budget %d", opt.Instructions))
	}
	if opt.PIDIntervalTicks < 0 {
		return "", nil, invalidSpec(fmt.Errorf("experiment: negative PID interval %d ticks", opt.PIDIntervalTicks))
	}
	for _, b := range opt.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return "", nil, invalidSpec(err)
		}
	}
	if _, err := matrixSchemes(opt); err != nil {
		return "", nil, err
	}
	s := newRunSpec(opt)
	if s.machineErr != nil {
		return "", nil, s.machineErr
	}
	if s.chipErr != nil {
		return "", nil, s.chipErr
	}
	return ctype, s, nil
}

// RenderKey returns the content address of one artifact render: two
// requests share a key only if RenderArtifactContext renders them to
// the same bytes. A request RenderArtifactContext would reject before
// simulating fails here with the same ErrInvalidSpec.
//
// The key is the SHA-256 of the artifact, the format, what the
// result-cache key leaves out and a render still reads, and the
// per-Options half of the runs' cache key (keyParts), which holds
// every default the harness applies. The left-out fields are the
// Benchmarks and Schemes selections as given, an empty list counting
// as omitted, and GovernorGain, which the cap artifacts read even
// when the options' own runs key the single-core shape that omits it.
// Where results are stored and how long a caller waits (CacheDir,
// Timeout, Context, ...) never enter the key. Nor does CorpusDir: a
// budget or benchmark list left for a corpus to fill in keys as the
// harness default.
func RenderKey(id string, format ArtifactFormat, opt Options) (string, error) {
	_, s, err := prepareRender(id, format, opt)
	if err != nil {
		return "", err
	}
	head, tail, err := s.keyParts()
	if err != nil {
		return "", err
	}
	render := struct {
		Artifact     string
		Format       ArtifactFormat
		Benchmarks   []string
		Schemes      []Scheme
		GovernorGain float64
	}{Artifact: id, Format: format, GovernorGain: opt.GovernorGain}
	if len(opt.Benchmarks) > 0 {
		render.Benchmarks = opt.Benchmarks
	}
	if len(opt.Schemes) > 0 {
		render.Schemes = opt.Schemes
	}
	blob, err := json.Marshal(render)
	if err != nil {
		return "", invalidSpec(fmt.Errorf("experiment: render key: %v", err))
	}
	// blob is one JSON object, so it ends where the key parts begin.
	h := sha256.New()
	h.Write(blob)
	h.Write(head)
	h.Write(tail)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RenderArtifactContext renders one catalog artifact in the requested
// format, returning the encoded bytes and their content type. ctx
// cancels the underlying simulations; every failure wraps a taxonomy
// sentinel (a request prepareRender rejects → ErrInvalidSpec, deadline
// → ErrRunTimeout, cancellation → ErrCancelled, simulator panic →
// ErrRunPanicked). The bytes are identical to what cmd/experiments
// -out writes for the same options.
func RenderArtifactContext(ctx context.Context, id string, format ArtifactFormat, opt Options) ([]byte, string, error) {
	ctx = orBackground(ctx)
	ctype, _, err := prepareRender(id, format, opt)
	if err != nil {
		return nil, "", err
	}
	opt.Context = ctx

	if format == FormatSVG {
		svg, err := renderArtifactSVG(ctx, id, opt)
		if err != nil {
			return nil, "", err
		}
		return []byte(svg), ctype, nil
	}
	rep, err := renderArtifactReport(ctx, id, opt)
	if err != nil {
		return nil, "", err
	}
	if format == FormatJSON {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, "", invalidSpec(fmt.Errorf("experiment: encoding %s: %v", id, err))
		}
		return blob, ctype, nil
	}
	return []byte(rep.String()), ctype, nil
}

// renderArtifactReport produces the textual Report for id. opt.Context
// is already set, so the non-context entry points cancel correctly.
func renderArtifactReport(ctx context.Context, id string, opt Options) (Report, error) {
	switch id {
	case "table1":
		return Table1(opt), nil
	case "table2":
		rep, _, err := Table2(opt)
		return rep, err
	case "fig7":
		return Figure7(opt)
	case "fig8":
		return Figure8(opt)
	case "summary":
		_, classes, err := Table2(opt)
		if err != nil {
			return Report{}, err
		}
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return Report{}, err
		}
		return Summary(m, classes), nil
	case "fig11":
		_, classes, err := Table2(opt)
		if err != nil {
			return Report{}, err
		}
		fast := FastGroup(classes)
		if len(fast) == 0 {
			return Report{}, invalidSpec(fmt.Errorf("experiment: classifier found no fast benchmarks"))
		}
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return Report{}, err
		}
		return m.Figure11(fast), nil
	case "fig9", "fig10":
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return Report{}, err
		}
		if id == "fig9" {
			return m.Figure9(), nil
		}
		return m.Figure10(), nil
	case "robustness":
		benchmarks := opt.Benchmarks
		if len(benchmarks) == 0 {
			benchmarks = robustnessBenchmarks
		}
		return FaultSweepContext(ctx, opt, benchmarks, nil)
	case "capsweep":
		return CapSweepContext(ctx, opt)
	case "captransient":
		return CapTransientContext(ctx, opt)
	}
	return Report{}, invalidSpec(fmt.Errorf("experiment: artifact %q has no report rendering", id))
}

// renderArtifactSVG produces the SVG figure for id.
func renderArtifactSVG(ctx context.Context, id string, opt Options) (string, error) {
	switch id {
	case "fig7":
		return Figure7SVG(opt)
	case "fig8":
		return Figure8SVG(opt)
	case "fig11":
		_, classes, err := Table2(opt)
		if err != nil {
			return "", err
		}
		fast := FastGroup(classes)
		if len(fast) == 0 {
			return "", invalidSpec(fmt.Errorf("experiment: classifier found no fast benchmarks"))
		}
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return "", err
		}
		return m.Figure11SVG(fast)
	case "fig9", "fig10":
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return "", err
		}
		if id == "fig9" {
			return m.Figure9SVG()
		}
		return m.Figure10SVG()
	case "capsweep":
		return CapSweepSVG(ctx, opt)
	}
	return "", invalidSpec(fmt.Errorf("experiment: artifact %q has no SVG rendering", id))
}
