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
	// SVG reports whether the artifact also renders as a figure: it is
	// set exactly for the catalog entries with an SVG renderer.
	SVG bool
}

// artifact is one catalog entry: its description and the renderers
// behind it. report renders the txt and json encodings; svg, set for
// the figures only, renders the svg one. Each reports whether its
// render is partial — a success with failed runs behind it, as a
// matrix or fault-sweep cell, noted in the artifact — which the render
// memo never stores.
type artifact struct {
	id, title string
	report    func(ctx context.Context, opt Options) (rep Report, partial bool, err error)
	svg       func(ctx context.Context, opt Options) (svg string, partial bool, err error)
}

// artifactCatalog lists every artifact in display order, the order
// cmd/experiments renders a selection in. An artifact with a benchmark
// list of its own (the studies from table3 on) runs it when
// Options.Benchmarks is empty; a non-empty selection overrides it.
var artifactCatalog = []artifact{
	{id: "table1", title: "Summary of all simulation parameters",
		report: func(_ context.Context, opt Options) (Report, bool, error) { return Table1(opt), false, nil }},
	{id: "table4", title: "Decision-logic hardware comparison (per clock domain)",
		report: func(context.Context, Options) (Report, bool, error) { return Table4(), false, nil }},
	{id: "remarks", title: "Stability analysis (Section 4, Remarks 1-3)",
		report: func(context.Context, Options) (Report, bool, error) {
			rep, err := RemarksReport()
			return rep, false, err
		}},
	{id: "table2", title: "Benchmark classification (fast/slow-varying)",
		report: func(ctx context.Context, opt Options) (Report, bool, error) {
			rep, _, err := Table2(ctx, opt)
			return rep, false, err
		}},
	{id: "fig7", title: "Adaptive frequency settings, FP domain, epic_decode",
		report: whole(Figure7), svg: whole(Figure7SVG)},
	{id: "fig8", title: "INT-queue variance spectrum, epic_decode",
		report: whole(Figure8), svg: whole(Figure8SVG)},
	{id: "fig9", title: "Energy savings vs no-DVFS baseline",
		report: fromMatrix(nil, func(m *Matrix, _ struct{}) (Report, error) { return m.Figure9(), nil }),
		svg:    fromMatrix(nil, func(m *Matrix, _ struct{}) (string, error) { return m.Figure9SVG() })},
	{id: "fig10", title: "Performance degradation vs no-DVFS baseline",
		report: fromMatrix(nil, func(m *Matrix, _ struct{}) (Report, error) { return m.Figure10(), nil }),
		svg:    fromMatrix(nil, func(m *Matrix, _ struct{}) (string, error) { return m.Figure10SVG() })},
	{id: "fig11", title: "EDP improvement, fast-varying group",
		report: fromMatrix(renderFastGroup, func(m *Matrix, fast []string) (Report, error) { return m.Figure11(fast), nil }),
		svg:    fromMatrix(renderFastGroup, (*Matrix).Figure11SVG)},
	{id: "summary", title: "Headline means vs the paper's reported results",
		report: fromMatrix(classifyBenchmarks, func(m *Matrix, classes []BenchClass) (Report, error) {
			return Summary(m, classes), nil
		})},
	{id: "table3", title: "Adaptive vs PID at shorter interval lengths (fast-varying group)",
		report: func(ctx context.Context, opt Options) (Report, bool, error) {
			fast, err := renderFastGroup(ctx, opt)
			if err != nil {
				return Report{}, false, err
			}
			rep, err := Table3(ctx, opt, fast)
			return rep, false, err
		}},
	{id: "ablation", title: "Adaptive-controller feature ablation", report: whole(Ablation)},
	{id: "transitions", title: "XScale-style vs Transmeta-style DVFS transitions", report: whole(TransitionStyles)},
	{id: "global", title: "Per-domain MCD control vs globally coupled scaling", report: whole(GlobalComparison)},
	{id: "qref", title: "Reference-occupancy sensitivity (Section 3.1 tradeoff)", report: whole(QRefSweep)},
	{id: "interfaces", title: "Synchronization interfaces: arbitration vs token-ring", report: whole(InterfaceStudy)},
	{id: "partitions", title: "Clock partitioning: 4 vs 5 domains, with and without front-end DVFS", report: whole(PartitionStudy)},
	{id: "delays", title: "Basic time-delay sweep (Remarks 2-3 in the full simulator)", report: whole(DelaySweep)},
	{id: "seeds", title: "Seed sensitivity of the adaptive scheme",
		report: whole(func(ctx context.Context, opt Options) (Report, error) { return SeedStudy(ctx, opt, studySeeds) })},
	{id: "robustness", title: "EDP degradation vs control-loop fault intensity",
		report: func(ctx context.Context, opt Options) (Report, bool, error) {
			rep, failures, err := faultSweep(ctx, opt)
			return rep, len(failures) > 0, err
		}},
	{id: "capsweep", title: "Chip EDP and per-core throughput vs power budget, per governor",
		report: whole(CapSweepContext), svg: whole(CapSweepSVG)},
	{id: "captransient", title: "Chip power-budget reallocation transient (integral-gain governor)",
		report: whole(CapTransientContext)},
}

// whole adapts a renderer that fails on any failed run, so never
// renders partially.
func whole[T any](render func(context.Context, Options) (T, error)) func(context.Context, Options) (T, bool, error) {
	return func(ctx context.Context, opt Options) (T, bool, error) {
		v, err := render(ctx, opt)
		return v, false, err
	}
}

// fromMatrix adapts an artifact drawn from the options' matrix,
// partial when any of its cells failed. prep, when set, computes what
// the drawing needs besides the matrix (fig11's fast-varying group,
// the summary's classes) before the matrix runs.
func fromMatrix[P, T any](prep func(context.Context, Options) (P, error), draw func(*Matrix, P) (T, error)) func(context.Context, Options) (T, bool, error) {
	return func(ctx context.Context, opt Options) (T, bool, error) {
		var zero T
		var p P
		if prep != nil {
			var err error
			if p, err = prep(ctx, opt); err != nil {
				return zero, false, err
			}
		}
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return zero, false, err
		}
		v, err := draw(m, p)
		return v, len(m.Failures) > 0, err
	}
}

// Artifacts returns the artifact catalog in stable display order.
func Artifacts() []ArtifactInfo {
	out := make([]ArtifactInfo, len(artifactCatalog))
	for i, a := range artifactCatalog {
		out[i] = ArtifactInfo{ID: a.id, Title: a.title, SVG: a.svg != nil}
	}
	return out
}

// artifactIDList renders the catalog IDs for error messages.
func artifactIDList() string {
	ids := make([]string, len(artifactCatalog))
	for i, a := range artifactCatalog {
		ids[i] = a.id
	}
	return strings.Join(ids, ", ")
}

// lookupArtifact resolves id against the catalog; unknown IDs fail as
// ErrInvalidSpec listing what is available.
func lookupArtifact(id string) (*artifact, error) {
	for i := range artifactCatalog {
		if artifactCatalog[i].id == id {
			return &artifactCatalog[i], nil
		}
	}
	return nil, invalidSpec(fmt.Errorf("experiment: unknown artifact %q (available: %s)", id, artifactIDList()))
}

// prepareRender makes every check a render can fail before it
// simulates anything, and returns the catalog entry and opt prepared
// as a runSpec. It checks the artifact and format against the
// catalog, then the options as given: the instruction budget, the PID
// interval (whether or not the scheme subset runs PID), the benchmark,
// scheme and fault-intensity selections, and the machine and chip
// checks newRunSpec records.
func prepareRender(id string, format ArtifactFormat, opt Options) (*artifact, *runSpec, error) {
	a, err := lookupArtifact(id)
	if err != nil {
		return nil, nil, err
	}
	if format.ContentType() == "" {
		return nil, nil, invalidSpec(fmt.Errorf("experiment: unknown artifact format %q (available: txt, json, svg)", format))
	}
	if format == FormatSVG && a.svg == nil {
		return nil, nil, invalidSpec(fmt.Errorf("experiment: artifact %q has no SVG rendering", id))
	}
	if opt.Instructions < 0 {
		return nil, nil, invalidSpec(fmt.Errorf("experiment: negative instruction budget %d", opt.Instructions))
	}
	if opt.PIDIntervalTicks < 0 {
		return nil, nil, invalidSpec(fmt.Errorf("experiment: negative PID interval %d ticks", opt.PIDIntervalTicks))
	}
	for _, b := range opt.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return nil, nil, invalidSpec(err)
		}
	}
	// An empty subset is the core comparison, which always resolves.
	if len(opt.Schemes) > 0 {
		if _, err := matrixSchemes(opt); err != nil {
			return nil, nil, err
		}
	}
	if err := validateIntensities(opt.FaultIntensities); err != nil {
		return nil, nil, err
	}
	s := newRunSpec(opt)
	if s.machineErr != nil {
		return nil, nil, s.machineErr
	}
	if s.chipErr != nil {
		return nil, nil, s.chipErr
	}
	return a, s, nil
}

// PreparedRender is one artifact render checked and keyed, ready to
// look up in the render memo or to render: PrepareRender makes every
// check and derives the render digest once, and the memo lookup, the
// render and the key all read that one derivation. It is immutable,
// so one may serve any number of lookups and renders, concurrently.
type PreparedRender struct {
	a      *artifact
	format ArtifactFormat
	opt    Options  // as given; each renderer applies its own defaults
	h      *Harness // the harness whose render memo serves it
	digest [sha256.Size]byte
	keyErr error // why the render has no key; it then renders unmemoized
}

// PrepareRender checks one render of artifact id in format under opt
// and derives its key. A request RenderArtifactContext would reject
// before simulating fails here with the same ErrInvalidSpec. Options
// whose key fails to encode (a panicking MutateAdaptive, say) still
// prepare: Key reports the failure, and Render renders them afresh
// every time.
func PrepareRender(id string, format ArtifactFormat, opt Options) (*PreparedRender, error) {
	a, s, err := prepareRender(id, format, opt)
	if err != nil {
		return nil, err
	}
	p := &PreparedRender{a: a, format: format, opt: opt, h: s.h}
	p.digest, p.keyErr = renderDigest(id, format, opt, s)
	return p, nil
}

// Key returns the render's content address: two requests share a key
// only if RenderArtifactContext renders them to the same bytes.
//
// The key is the SHA-256 of the artifact, the format, what the
// result-cache key leaves out and a render still reads, and the
// per-Options parts of the runs' cache key (keyHead and keyParts),
// which hold every default the harness applies. The left-out fields
// are the Benchmarks, Schemes and FaultIntensities selections as
// given, an empty list counting as omitted. GovernorGain, which the
// key tail also holds, is hashed again so that render keys keep their
// bytes. Where results are stored and how long a caller waits
// (CacheDir, Timeout, ...) never enter the key. Nor does CorpusDir: a
// budget or benchmark list left for a corpus to fill in keys as the
// harness default.
func (p *PreparedRender) Key() (string, error) {
	if p.keyErr != nil {
		return "", p.keyErr
	}
	return hex.EncodeToString(p.digest[:]), nil
}

// memoizable reports whether the render memo may stand for p. Options
// the key cannot stand for render afresh every time: a CorpusDir (the
// key treats a corpus-filled budget as the default), a RowFlush hook
// (a memo hit would never call it), and options whose key fails.
func (p *PreparedRender) memoizable() bool {
	return p.keyErr == nil && p.opt.CorpusDir == "" && p.opt.RowFlush == nil
}

// Memoized returns a copy of the render's memoized bytes, counted as a
// render memo hit, and false when the memo does not hold them or may
// not stand for this render. A miss counts nothing: the Render that
// follows it counts it, so a request is one hit or one miss whichever
// path serves it.
func (p *PreparedRender) Memoized() ([]byte, bool) {
	if !p.memoizable() {
		return nil, false
	}
	return p.h.memoizedRender(p.digest)
}

// Render renders the artifact, or serves it from the render memo when
// the memo may stand for it (see Memoized); a complete render is
// memoized for the next request. ctx cancels the underlying
// simulations. Every failure wraps a taxonomy sentinel, as
// RenderArtifactContext documents.
func (p *PreparedRender) Render(ctx context.Context) ([]byte, error) {
	ctx = orBackground(ctx)
	render := func() ([]byte, bool, error) { return p.a.render(ctx, p.format, p.opt) }
	if p.memoizable() {
		return p.h.cachedRender(p.digest, render)
	}
	body, _, err := render()
	return body, err
}

// renderDigest is the digest behind PreparedRender.Key, derived from the
// runSpec prepareRender returned for the same request. It also keys
// the render memo (see cachedRender).
func renderDigest(id string, format ArtifactFormat, opt Options, s *runSpec) ([sha256.Size]byte, error) {
	tail, err := s.keyParts()
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
	h.Write(keyHead)
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
// A complete render is memoized under its key digest, so a
// repeat costs one key and one map lookup (see PreparedRender.Render).
func RenderArtifactContext(ctx context.Context, id string, format ArtifactFormat, opt Options) ([]byte, string, error) {
	p, err := PrepareRender(id, format, opt)
	if err != nil {
		return nil, "", err
	}
	body, err := p.Render(ctx)
	if err != nil {
		return nil, "", err
	}
	return body, format.ContentType(), nil
}

// render produces the artifact's bytes in format, and whether the
// render is partial.
func (a *artifact) render(ctx context.Context, format ArtifactFormat, opt Options) (body []byte, partial bool, err error) {
	if format == FormatSVG {
		svg, partial, err := a.svg(ctx, opt)
		if err != nil {
			return nil, false, err
		}
		return []byte(svg), partial, nil
	}
	rep, partial, err := a.report(ctx, opt)
	if err != nil {
		return nil, false, err
	}
	if format == FormatJSON {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, false, invalidSpec(fmt.Errorf("experiment: encoding %s: %v", a.id, err))
		}
		return blob, partial, nil
	}
	return []byte(rep.String()), partial, nil
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
