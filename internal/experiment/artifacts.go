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
// outputs, the only dispatcher cmd/experiments, the mcdserve HTTP
// service and the public API render through. txt is Report.String(),
// json is the two-space MarshalIndent of the Report, svg is the
// figure's SVG — so an artifact fetched over HTTP diffs clean against
// one a batch run writes from the same options (the CI parity gates
// rely on it).

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

// artifactCatalog lists every artifact in display order, the order
// cmd/experiments renders a selection in. An artifact with a benchmark
// list of its own (the studies from table3 on) runs it when
// Options.Benchmarks is empty; a non-empty selection overrides it.
var artifactCatalog = []ArtifactInfo{
	{ID: "table1", Title: "Summary of all simulation parameters"},
	{ID: "table4", Title: "Decision-logic hardware comparison (per clock domain)"},
	{ID: "remarks", Title: "Stability analysis (Section 4, Remarks 1-3)"},
	{ID: "table2", Title: "Benchmark classification (fast/slow-varying)"},
	{ID: "fig7", Title: "Adaptive frequency settings, FP domain, epic_decode", SVG: true},
	{ID: "fig8", Title: "INT-queue variance spectrum, epic_decode", SVG: true},
	{ID: "fig9", Title: "Energy savings vs no-DVFS baseline", SVG: true},
	{ID: "fig10", Title: "Performance degradation vs no-DVFS baseline", SVG: true},
	{ID: "fig11", Title: "EDP improvement, fast-varying group", SVG: true},
	{ID: "summary", Title: "Headline means vs the paper's reported results"},
	{ID: "table3", Title: "Adaptive vs PID at shorter interval lengths (fast-varying group)"},
	{ID: "ablation", Title: "Adaptive-controller feature ablation"},
	{ID: "transitions", Title: "XScale-style vs Transmeta-style DVFS transitions"},
	{ID: "global", Title: "Per-domain MCD control vs globally coupled scaling"},
	{ID: "qref", Title: "Reference-occupancy sensitivity (Section 3.1 tradeoff)"},
	{ID: "interfaces", Title: "Synchronization interfaces: arbitration vs token-ring"},
	{ID: "partitions", Title: "Clock partitioning: 4 vs 5 domains, with and without front-end DVFS"},
	{ID: "delays", Title: "Basic time-delay sweep (Remarks 2-3 in the full simulator)"},
	{ID: "seeds", Title: "Seed sensitivity of the adaptive scheme"},
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

// prepareRender makes every check a render can fail before it
// simulates anything, and returns the format's content type and opt
// prepared as a runSpec. It checks the artifact and format against the
// catalog, then the options as given: the instruction budget, the PID
// interval (whether or not the scheme subset runs PID), the benchmark,
// scheme and fault-intensity selections, and the machine and chip
// checks newRunSpec records.
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
	if err := validateIntensities(opt.FaultIntensities); err != nil {
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
// Benchmarks, Schemes and FaultIntensities selections as given, an
// empty list counting as omitted, and GovernorGain, which the cap
// artifacts read even when the options' own runs key the single-core
// shape that omits it. Where results are stored and how long a caller
// waits (CacheDir, Timeout, ...) never enter the key. Nor does
// CorpusDir: a budget or benchmark list left for a corpus to fill in
// keys as the harness default.
func RenderKey(id string, format ArtifactFormat, opt Options) (string, error) {
	_, s, err := prepareRender(id, format, opt)
	if err != nil {
		return "", err
	}
	k, err := renderDigest(id, format, opt, s)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(k[:]), nil
}

// renderDigest is the digest behind RenderKey, derived from the
// runSpec prepareRender returned for the same request. It also keys
// the render memo (see cachedRender).
func renderDigest(id string, format ArtifactFormat, opt Options, s *runSpec) ([sha256.Size]byte, error) {
	head, tail, err := s.keyParts()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	render := struct {
		Artifact         string
		Format           ArtifactFormat
		Benchmarks       []string
		Schemes          []Scheme
		GovernorGain     float64
		FaultIntensities []float64 `json:",omitempty"`
	}{Artifact: id, Format: format, GovernorGain: opt.GovernorGain, FaultIntensities: opt.FaultIntensities}
	if len(opt.Benchmarks) > 0 {
		render.Benchmarks = opt.Benchmarks
	}
	if len(opt.Schemes) > 0 {
		render.Schemes = opt.Schemes
	}
	blob, err := json.Marshal(render)
	if err != nil {
		return [sha256.Size]byte{}, invalidSpec(fmt.Errorf("experiment: render key: %v", err))
	}
	// blob is one JSON object, so it ends where the key parts begin.
	h := sha256.New()
	h.Write(blob)
	h.Write(head)
	h.Write(tail)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k, nil
}

// RenderArtifactContext renders one catalog artifact in the requested
// format, returning the encoded bytes and their content type. ctx
// cancels the underlying simulations; every failure wraps a taxonomy
// sentinel (a request prepareRender rejects → ErrInvalidSpec, deadline
// → ErrRunTimeout, cancellation → ErrCancelled, simulator panic →
// ErrRunPanicked). The bytes are identical to what cmd/experiments
// -out writes for the same options.
//
// A complete render is memoized under its RenderKey digest, so a
// repeat costs one key and one map lookup (see cachedRender). Options
// the key cannot stand for render afresh every time: a CorpusDir (the
// key treats a corpus-filled budget as the default), a RowFlush hook
// (a memo hit would never call it), and options whose key fails.
func RenderArtifactContext(ctx context.Context, id string, format ArtifactFormat, opt Options) ([]byte, string, error) {
	ctx = orBackground(ctx)
	ctype, s, err := prepareRender(id, format, opt)
	if err != nil {
		return nil, "", err
	}
	render := func() ([]byte, bool, error) { return renderArtifact(ctx, id, format, opt) }
	if opt.CorpusDir == "" && opt.RowFlush == nil {
		if k, err := renderDigest(id, format, opt, s); err == nil {
			body, err := s.h.cachedRender(k, render)
			if err != nil {
				return nil, "", err
			}
			return body, ctype, nil
		}
	}
	body, _, err := render()
	if err != nil {
		return nil, "", err
	}
	return body, ctype, nil
}

// renderArtifact produces id's bytes in format. partial reports a
// render that succeeded with failed runs behind it — a matrix or fault
// sweep cell, noted in the artifact — which the render memo never
// stores.
func renderArtifact(ctx context.Context, id string, format ArtifactFormat, opt Options) (body []byte, partial bool, err error) {
	if format == FormatSVG {
		svg, partial, err := renderArtifactSVG(ctx, id, opt)
		if err != nil {
			return nil, false, err
		}
		return []byte(svg), partial, nil
	}
	rep, partial, err := renderArtifactReport(ctx, id, opt)
	if err != nil {
		return nil, false, err
	}
	if format == FormatJSON {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, false, invalidSpec(fmt.Errorf("experiment: encoding %s: %v", id, err))
		}
		return blob, partial, nil
	}
	return []byte(rep.String()), partial, nil
}

// renderMatrix runs the matrix a figure reads and reports whether any
// of its cells failed.
func renderMatrix(ctx context.Context, opt Options) (m *Matrix, partial bool, err error) {
	m, err = RunMatrixContext(ctx, opt)
	if err != nil {
		return nil, false, err
	}
	return m, len(m.Failures) > 0, nil
}

// renderFastGroup classifies the benchmarks for fig11 and table3 and
// returns the fast-varying group they compare on.
func renderFastGroup(ctx context.Context, opt Options) ([]string, error) {
	classes, err := classifyBenchmarks(ctx, opt)
	if err != nil {
		return nil, err
	}
	fast := FastGroup(classes)
	if len(fast) == 0 {
		return nil, invalidSpec(fmt.Errorf("experiment: classifier found no fast benchmarks"))
	}
	return fast, nil
}

// renderArtifactReport produces the textual Report for id, and whether
// it is partial. Only the matrix figures and the fault sweep can
// succeed partially; every other artifact fails on a failed run.
func renderArtifactReport(ctx context.Context, id string, opt Options) (Report, bool, error) {
	complete := func(rep Report, err error) (Report, bool, error) { return rep, false, err }
	switch id {
	case "table1":
		return Table1(opt), false, nil
	case "table4":
		return Table4(), false, nil
	case "remarks":
		return complete(RemarksReport())
	case "table2":
		rep, _, err := Table2(ctx, opt)
		return rep, false, err
	case "fig7":
		return complete(Figure7(ctx, opt))
	case "fig8":
		return complete(Figure8(ctx, opt))
	case "summary":
		classes, err := classifyBenchmarks(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		m, partial, err := renderMatrix(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		return Summary(m, classes), partial, nil
	case "fig11":
		fast, err := renderFastGroup(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		m, partial, err := renderMatrix(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		return m.Figure11(fast), partial, nil
	case "table3":
		fast, err := renderFastGroup(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		return complete(Table3(ctx, opt, fast))
	case "ablation":
		return complete(Ablation(ctx, opt))
	case "transitions":
		return complete(TransitionStyles(ctx, opt))
	case "global":
		return complete(GlobalComparison(ctx, opt))
	case "qref":
		return complete(QRefSweep(ctx, opt))
	case "interfaces":
		return complete(InterfaceStudy(ctx, opt))
	case "partitions":
		return complete(PartitionStudy(ctx, opt))
	case "delays":
		return complete(DelaySweep(ctx, opt))
	case "seeds":
		return complete(SeedStudy(ctx, opt, studySeeds))
	case "fig9", "fig10":
		m, partial, err := renderMatrix(ctx, opt)
		if err != nil {
			return Report{}, false, err
		}
		if id == "fig9" {
			return m.Figure9(), partial, nil
		}
		return m.Figure10(), partial, nil
	case "robustness":
		rep, failures, err := faultSweep(ctx, opt)
		return rep, len(failures) > 0, err
	case "capsweep":
		return complete(CapSweepContext(ctx, opt))
	case "captransient":
		return complete(CapTransientContext(ctx, opt))
	}
	return Report{}, false, invalidSpec(fmt.Errorf("experiment: artifact %q has no report rendering", id))
}

// renderArtifactSVG produces the SVG figure for id, and whether it is
// partial (see renderArtifactReport).
func renderArtifactSVG(ctx context.Context, id string, opt Options) (string, bool, error) {
	complete := func(svg string, err error) (string, bool, error) { return svg, false, err }
	switch id {
	case "fig7":
		return complete(Figure7SVG(ctx, opt))
	case "fig8":
		return complete(Figure8SVG(ctx, opt))
	case "fig11":
		fast, err := renderFastGroup(ctx, opt)
		if err != nil {
			return "", false, err
		}
		m, partial, err := renderMatrix(ctx, opt)
		if err != nil {
			return "", false, err
		}
		svg, err := m.Figure11SVG(fast)
		return svg, partial, err
	case "fig9", "fig10":
		m, partial, err := renderMatrix(ctx, opt)
		if err != nil {
			return "", false, err
		}
		var svg string
		if id == "fig9" {
			svg, err = m.Figure9SVG()
		} else {
			svg, err = m.Figure10SVG()
		}
		return svg, partial, err
	case "capsweep":
		return complete(CapSweepSVG(ctx, opt))
	}
	return "", false, invalidSpec(fmt.Errorf("experiment: artifact %q has no SVG rendering", id))
}
