// Package mcddvfs is a library reproduction of "Voltage and Frequency
// Control With Adaptive Reaction Time in Multiple-Clock-Domain
// Processors" (Wu, Juang, Martonosi, Clark — HPCA 2005).
//
// It bundles a cycle-level multiple-clock-domain (MCD) out-of-order
// processor simulator with per-domain DVFS, the paper's adaptive
// event-driven DVFS controller, the fixed-interval prior-work schemes
// it is compared against (attack/decay and PID), a Wattch-style energy
// model, the Section-4 control-theoretic stability analysis, the
// Section-5.2 spectral workload classifier, and an experiment harness
// that regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	res, err := mcddvfs.Run(mcddvfs.RunSpec{
//		Benchmark: "epic_decode",
//		Scheme:    mcddvfs.SchemeAdaptive,
//	})
//
// Compare against the no-DVFS baseline:
//
//	base, _ := mcddvfs.Run(mcddvfs.RunSpec{Benchmark: "epic_decode", Scheme: mcddvfs.SchemeNone})
//	cmp := mcddvfs.CompareRuns(base, res)
//	fmt.Printf("energy saving %.1f%%, slowdown %.1f%%\n",
//		100*cmp.EnergySaving, 100*cmp.PerfDegradation)
package mcddvfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"mcddvfs/internal/control"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/scheme"
	"mcddvfs/internal/spectrum"
	"mcddvfs/internal/stability"
	"mcddvfs/internal/trace"
)

// Re-exported core types. The aliases make the full capability of the
// internal packages reachable through the public API without widening
// the import surface.
type (
	// Result is the outcome of one simulation run.
	Result = mcd.Result
	// DomainStats summarizes one clock domain after a run.
	DomainStats = mcd.DomainStats
	// FreqPoint is one frequency-trajectory sample (Figure 7's axes).
	FreqPoint = mcd.FreqPoint
	// MachineConfig is the Table-1 machine description.
	MachineConfig = mcd.Config
	// ControllerConfig parameterizes the adaptive controller.
	ControllerConfig = control.Config
	// ControllerStats counts adaptive-controller events.
	ControllerStats = control.Stats
	// Metrics is a run's headline energy/performance outcome.
	Metrics = power.Metrics
	// Comparison holds the paper's three metrics vs a baseline run.
	Comparison = power.Comparison
	// Scheme names a DVFS control scheme.
	Scheme = experiment.Scheme
	// Report is a rendered table or figure.
	Report = experiment.Report
	// Options configures experiment-harness runs.
	Options = experiment.Options
	// Matrix is the benchmark × scheme result grid.
	Matrix = experiment.Matrix
	// BenchClass is one row of the workload classification.
	BenchClass = experiment.BenchClass
	// StabilitySystem is the Section-4 analytic model.
	StabilitySystem = stability.System
	// Profile is a synthetic benchmark description.
	Profile = trace.Profile
	// Phase is one program phase of a Profile.
	Phase = trace.Phase
	// Mix is a phase's instruction-class distribution, indexed by the
	// Class* constants.
	Mix = trace.Mix
	// Class is a micro-operation class.
	Class = isa.Class
	// ExecDomain identifies a DVFS-controlled clock domain.
	ExecDomain = isa.ExecDomain
	// FaultConfig configures the deterministic fault-injection layer on
	// the DVFS control loop; the zero value disables injection and
	// leaves outputs bit-identical.
	FaultConfig = faults.Config
	// SensorFaults corrupts the occupancy readings controllers observe.
	SensorFaults = faults.SensorConfig
	// ActuatorFaults corrupts the path from controller decisions to the
	// clock domains.
	ActuatorFaults = faults.ActuatorConfig
	// CellError is one failed cell of a benchmark × scheme matrix.
	CellError = experiment.CellError
	// RowEvent is one completed benchmark row of a matrix sweep,
	// delivered through Options.RowFlush in benchmark order.
	RowEvent = experiment.RowEvent
	// CorpusStats summarizes streamed-trace residency and self-healing
	// for a corpus-backed matrix run (Matrix.Corpus).
	CorpusStats = experiment.CorpusStats
)

// The harness error taxonomy: every failure a run can produce wraps
// exactly one of these sentinels (match with errors.Is).
var (
	// ErrInvalidSpec marks requests that could never run (unknown
	// benchmark, malformed profile or machine configuration).
	ErrInvalidSpec = experiment.ErrInvalidSpec
	// ErrRunTimeout marks runs that exceeded their deadline.
	ErrRunTimeout = experiment.ErrRunTimeout
	// ErrCancelled marks runs aborted by context cancellation.
	ErrCancelled = experiment.ErrCancelled
	// ErrRunPanicked marks runs whose simulation panicked; the panic is
	// recovered into this error instead of crashing the process.
	ErrRunPanicked = experiment.ErrRunPanicked
)

// FaultIntensity returns the canonical fault profile scaled by level
// in [0, 1] — the knob the robustness sweep turns. See
// faults.Intensity for the profile.
func FaultIntensity(level float64, seed int64) FaultConfig {
	return faults.Intensity(level, seed)
}

// Instruction classes for building custom workload mixes.
const (
	ClassIntALU  = isa.IntALU
	ClassIntMult = isa.IntMult
	ClassIntDiv  = isa.IntDiv
	ClassFPAdd   = isa.FPAdd
	ClassFPMult  = isa.FPMult
	ClassFPDiv   = isa.FPDiv
	ClassFPSqrt  = isa.FPSqrt
	ClassLoad    = isa.Load
	ClassStore   = isa.Store
	ClassBranch  = isa.Branch
	ClassNop     = isa.Nop
)

// Named constants for the paper's evaluated schemes. Any name listed
// by Schemes() is equally valid wherever a Scheme is accepted — the
// constants are a convenience, not the full set.
const (
	SchemeNone        = experiment.SchemeNone
	SchemeAdaptive    = experiment.SchemeAdaptive
	SchemePID         = experiment.SchemePID
	SchemeAttackDecay = experiment.SchemeAttackDecay
)

// SchemeInfo describes one registered DVFS control scheme.
type SchemeInfo struct {
	// Name is the stable identifier accepted wherever a Scheme is
	// (RunSpec.Scheme, Options.Schemes, the CLIs' -scheme/-schemes).
	Name Scheme
	// Controlled reports whether the scheme scales domain frequencies;
	// the no-DVFS baseline is the one registered scheme that does not.
	Controlled bool
	// Extension marks schemes beyond the paper's core comparison; they
	// run only when requested and never join default sweeps.
	Extension bool
	// Description is a one-line human-readable summary.
	Description string
}

// Schemes lists every registered DVFS control scheme in display
// order: the paper's comparison first (none, adaptive, pid,
// attack-decay), then extensions. The scheme registry
// (internal/scheme) is the single source of truth; plugging a new
// scheme in there makes it appear here and everywhere else with no
// further wiring.
func Schemes() []SchemeInfo {
	ds := scheme.All()
	out := make([]SchemeInfo, len(ds))
	for i, d := range ds {
		out[i] = SchemeInfo{
			Name:        Scheme(d.Name),
			Controlled:  d.Controlled,
			Extension:   d.Extension,
			Description: d.Description,
		}
	}
	return out
}

// The controlled execution domains.
const (
	DomainInt = isa.DomainInt
	DomainFP  = isa.DomainFP
	DomainLS  = isa.DomainLS
)

// Benchmarks returns the names of the 17 bundled synthetic benchmarks
// (6 MediaBench, 6 SPECint2000, 5 SPECfp2000 profiles).
func Benchmarks() []string { return trace.Names() }

// BenchmarkProfile returns the profile of one bundled benchmark.
func BenchmarkProfile(name string) (Profile, error) { return trace.ByName(name) }

// DefaultMachine returns the Table-1 machine configuration.
func DefaultMachine() MachineConfig { return mcd.DefaultConfig() }

// DefaultController returns the paper's adaptive-controller
// configuration for one domain (QRef 7 for INT, 4 for FP/LS; delays
// 50/8; deviation windows ±1/0).
func DefaultController(domain ExecDomain) ControllerConfig {
	return control.DefaultConfig(domain)
}

// RunSpec describes one simulation run.
type RunSpec struct {
	// Benchmark is a bundled benchmark name (see Benchmarks).
	Benchmark string
	// Scheme selects the DVFS control scheme (default SchemeAdaptive).
	Scheme Scheme
	// Instructions is the dynamic instruction budget (default 500000).
	Instructions int64
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Machine, when non-nil, overrides the Table-1 machine.
	Machine *MachineConfig
	// TuneAdaptive, when non-nil, adjusts the adaptive controller of
	// each domain before the run (ignored for other schemes). It must
	// be a pure function of its argument: besides configuring the
	// controllers, it is replayed against scratch per-domain defaults
	// to canonicalize its effect for the in-process result cache.
	TuneAdaptive func(*ControllerConfig)
	// Faults injects deterministic sensor/actuator faults into the
	// DVFS control loop; the zero value changes nothing.
	Faults FaultConfig
	// Timeout bounds the run; on expiry the run fails with
	// ErrRunTimeout (0 = unbounded).
	Timeout time.Duration
}

// options copies the spec onto the harness defaults: a zero
// Instructions or Seed keeps its experiment.DefaultOptions value.
func (spec RunSpec) options() experiment.Options {
	opt := experiment.DefaultOptions()
	if spec.Instructions != 0 {
		opt.Instructions = spec.Instructions
	}
	if spec.Seed != 0 {
		opt.Seed = spec.Seed
	}
	opt.Machine = spec.Machine
	opt.MutateAdaptive = spec.TuneAdaptive
	opt.Faults = spec.Faults
	opt.Timeout = spec.Timeout
	return opt
}

// Run simulates one benchmark under one control scheme and returns the
// result. Invalid specs (unknown benchmark or scheme, malformed
// machine configuration) fail with an error wrapping ErrInvalidSpec
// rather than panicking.
func Run(spec RunSpec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: the simulation aborts with an
// error wrapping ErrCancelled (or ErrRunTimeout for spec.Timeout)
// shortly after ctx ends.
func RunContext(ctx context.Context, spec RunSpec) (*Result, error) {
	if spec.Scheme == "" {
		spec.Scheme = SchemeAdaptive
	}
	return experiment.RunOneContext(ctx, spec.Benchmark, spec.Scheme, spec.options())
}

// RunProfile simulates a user-defined workload profile (rather than a
// bundled benchmark) under the given spec. spec.Benchmark is ignored.
// Like Run, it reports invalid input as ErrInvalidSpec instead of
// panicking.
func RunProfile(prof Profile, spec RunSpec) (*Result, error) {
	return RunProfileContext(context.Background(), prof, spec)
}

// RunProfileContext is RunProfile with cancellation.
func RunProfileContext(ctx context.Context, prof Profile, spec RunSpec) (*Result, error) {
	if spec.Scheme == "" {
		spec.Scheme = SchemeAdaptive
	}
	return experiment.RunProfileContext(ctx, prof, spec.Scheme, spec.options())
}

// CompareRuns computes the paper's three headline metrics (energy
// saving, performance degradation, EDP improvement) of run against
// base.
func CompareRuns(base, run *Result) Comparison {
	return power.Compare(base.Metrics, run.Metrics)
}

// ClassifyWorkload applies the Section-5.2 spectral test to a queue
// occupancy series sampled at 250 MHz and reports whether it counts as
// fast-varying.
func ClassifyWorkload(occupancy []float64) (fastShare float64, fast bool, err error) {
	c, err := spectrum.Classify(occupancy, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold)
	if err != nil {
		return 0, false, err
	}
	return c.ShortShare, c.Fast, nil
}

// DefaultStabilitySystem returns the Section-4 analytic model with the
// paper's typical setting.
func DefaultStabilitySystem() StabilitySystem { return stability.Default() }

// NewMatrix simulates every benchmark under every scheme (the grid
// behind Figures 9–11). Expensive: ~70 full simulations. A failing
// cell no longer aborts the sweep: it lands in Matrix.Failures as a
// structured error while the rest of the matrix completes.
func NewMatrix(opt Options) (*Matrix, error) { return experiment.RunMatrix(opt) }

// NewMatrixContext is NewMatrix with cancellation; on cancellation the
// partial matrix is returned alongside an ErrCancelled error.
func NewMatrixContext(ctx context.Context, opt Options) (*Matrix, error) {
	return experiment.RunMatrixContext(ctx, opt)
}

type (
	// ChipConfig configures an N-core MCD chip (Options.Cores and
	// friends build one for you; construct directly for full control).
	ChipConfig = mcd.ChipConfig
	// ChipResult is a chip run's outcome: per-core Results plus the
	// chip rollup and the governor's epoch trace.
	ChipResult = mcd.ChipResult
	// EpochSample is one entry of ChipResult.EpochTrace.
	EpochSample = mcd.EpochSample
)

// GovernorInfo describes one registered chip-level power-cap governor.
type GovernorInfo struct {
	// Name is the stable identifier (Options.Governor, the CLIs'
	// -governor, the service's "governor" field).
	Name string
	// Capping reports whether the governor enforces a power budget;
	// "none" is the one registered governor that does not.
	Capping bool
	// Description is a one-line human-readable summary.
	Description string
}

// Governors lists every registered chip-level governor in display
// order. The governor registry (internal/governor) is the single
// source of truth, exactly like the scheme registry: plugging a new
// governor in there makes it appear here, in the CLIs' -governor
// usage, and in the service's validation with no further wiring.
func Governors() []GovernorInfo {
	ds := governor.All()
	out := make([]GovernorInfo, len(ds))
	for i, d := range ds {
		out[i] = GovernorInfo{Name: d.Name, Capping: d.Capping, Description: d.Description}
	}
	return out
}

// RunChip simulates an N-core chip: each core is a full MCD processor
// running one benchmark (assigned round-robin from benchmarks; nil
// picks a default heterogeneous mix), with opt.PowerCapW and
// opt.Governor selecting the chip-level power-cap policy. Every run
// is a chip: with opt.Cores <= 1, no budget, and no governor it is the
// single-core run itself — the same cache entry and the same
// simulation as Run of that benchmark, whose Result is the chip's only
// core.
func RunChip(benchmarks []string, sch Scheme, opt Options) (*ChipResult, error) {
	return experiment.RunChip(benchmarks, sch, opt)
}

// RunChipContext is RunChip with cancellation.
func RunChipContext(ctx context.Context, benchmarks []string, sch Scheme, opt Options) (*ChipResult, error) {
	return experiment.RunChipContext(ctx, benchmarks, sch, opt)
}

// ArtifactInfo describes one renderable artifact of the paper's
// evaluation (a table, figure, or extension report).
type ArtifactInfo = experiment.ArtifactInfo

// ArtifactFormat selects an artifact encoding: FormatText, FormatJSON
// or FormatSVG.
type ArtifactFormat = experiment.ArtifactFormat

// Artifact encodings. SVG is available only for artifacts whose
// ArtifactInfo.SVG flag is set.
const (
	FormatText = experiment.FormatText
	FormatJSON = experiment.FormatJSON
	FormatSVG  = experiment.FormatSVG
)

// Artifacts lists every renderable artifact in catalog order — the
// same catalog cmd/mcdserve serves over HTTP.
func Artifacts() []ArtifactInfo { return experiment.Artifacts() }

// RenderArtifact renders one artifact by catalog ID into the given
// format, returning the encoded bytes and their MIME content type.
// The bytes are deterministic: byte-identical across runs, processes,
// and cache states for the same id, format, and options. A repeat of a
// complete render is served from the in-process render memo; the
// returned slice is always the caller's own.
func RenderArtifact(id string, format ArtifactFormat, opt Options) ([]byte, string, error) {
	return experiment.RenderArtifactContext(context.Background(), id, format, opt)
}

// RenderArtifactContext is RenderArtifact with cancellation; the
// returned error wraps the usual taxonomy sentinels.
func RenderArtifactContext(ctx context.Context, id string, format ArtifactFormat, opt Options) ([]byte, string, error) {
	return experiment.RenderArtifactContext(ctx, id, format, opt)
}

// FaultSweep measures how gracefully each control scheme degrades as
// control-loop faults intensify (see experiment.FaultSweep). Passing
// nil benchmarks or intensities selects the defaults.
func FaultSweep(opt Options, benchmarks []string, intensities []float64) (Report, error) {
	return experiment.FaultSweep(opt, benchmarks, intensities)
}

// TraceSource is a stream of dynamic instructions: a synthetic
// Generator or a replayed trace file.
type TraceSource = trace.Source

// NewTraceGenerator builds a generator for a profile — the way to
// stream instructions without running the simulator.
func NewTraceGenerator(prof Profile, seed, instructions int64) (*trace.Generator, error) {
	return trace.NewGenerator(prof, seed, instructions)
}

// WriteTrace serializes count instructions from src to w in the
// repository's chunked trace format (replayable with ReadTrace or
// cmd/tracegen) and returns the number of instructions written.
func WriteTrace(w io.Writer, src TraceSource, count int64) (int64, error) {
	if _, err := trace.WriteChunked(w, src, count, 0); err != nil {
		return 0, err
	}
	return count, nil
}

// ReadTrace reads a whole serialized trace into memory and opens it
// for replay. Anything but the chunked format, magic "MCDC", is an
// error.
func ReadTrace(r io.Reader) (*trace.ChunkedReplayer, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c, err := trace.OpenChunked(bytes.NewReader(blob), int64(len(blob)), 0)
	if err != nil {
		return nil, err
	}
	return c.Replay(), nil
}

// RunTrace simulates a pre-built instruction source (e.g. a replayed
// trace) under the given spec. spec.Benchmark and spec.Instructions are
// ignored: the source defines both.
func RunTrace(src TraceSource, spec RunSpec) (*Result, error) {
	if spec.Scheme == "" {
		spec.Scheme = SchemeAdaptive
	}
	machine := DefaultMachine()
	if spec.Machine != nil {
		machine = *spec.Machine
	}
	machine.Seed = spec.Seed
	if spec.Faults.Enabled() {
		machine.Faults = spec.Faults
	}
	p, err := mcd.New(machine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	opt := experiment.Options{Seed: spec.Seed, MutateAdaptive: spec.TuneAdaptive}
	if err := experiment.AttachScheme(p, spec.Scheme, opt); err != nil {
		return nil, err
	}
	res, err := p.Run(src)
	if err != nil {
		return nil, err
	}
	res.Scheme = string(spec.Scheme)
	return res, nil
}
