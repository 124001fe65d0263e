package serve

import (
	"fmt"
	"math"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/faults"
)

// RenderRequest is the wire form of one experiment spec: which catalog
// artifact to render, how, and under what simulation options. Zero
// fields take the harness defaults, so {"artifact":"fig9",
// "format":"txt"} is a complete request. Before the request is
// admitted, the harness checks it and derives its flight key
// (experiment.PrepareRender) from the options it copies onto: an
// unrunnable spec is rejected as invalid_spec without consuming a
// worker slot, and an omitted field shares a key with its explicit
// default.
type RenderRequest struct {
	// Artifact names a catalog entry (GET /api/v1/artifacts).
	Artifact string `json:"artifact"`
	// Format is txt, json, or svg (svg only for figures).
	Format string `json:"format"`
	// Instructions bounds each simulation (0 selects the harness
	// default, 500000).
	Instructions int64 `json:"instructions,omitempty"`
	// Seed is the simulation seed (0 selects the harness default, 1 —
	// the same default the CLIs flag in, so default renders are
	// byte-identical across the API and cmd/experiments).
	Seed int64 `json:"seed,omitempty"`
	// Benchmarks narrows the workload set (empty = artifact default).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Schemes narrows the matrix columns (empty = the paper's core
	// comparison). Names must be registered controlled schemes.
	Schemes []string `json:"schemes,omitempty"`
	// PIDIntervalTicks overrides the PID sampling interval (0 =
	// default).
	PIDIntervalTicks int `json:"pid_interval_ticks,omitempty"`
	// FaultIntensity scales the canonical fault profile in [0,1];
	// 0 disables injection.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	// FaultSeed seeds the fault RNG when FaultIntensity > 0.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// TimeoutMS is this request's deadline in milliseconds (0 = server
	// default; clamped to the server maximum). Excluded from the flight
	// key: it bounds how long this request waits, never the render it
	// may share with other requests.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Cores sizes the simulated chip (0 or 1 = the classic single-core
	// processor; >1 = an N-core chip).
	Cores int `json:"cores,omitempty"`
	// PowerCapW is the chip power budget in watts (0 = unbudgeted). A
	// positive budget with no Governor selects integral-gain.
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// Governor names a chip-level power-cap governor from the registry
	// (GET via the CLI's -governor usage; empty = none).
	Governor string `json:"governor,omitempty"`
	// GovernorGain overrides the governor's integral gain in MHz/W
	// (0 = the governor default).
	GovernorGain float64 `json:"governor_gain,omitempty"`
}

// renderSpec is one request checked and keyed: its artifact and
// format, the harness options it asks for, the render they prepare
// and its flight key, and the deadline of the request's own wait.
type renderSpec struct {
	artifact string
	format   experiment.ArtifactFormat
	opt      experiment.Options
	render   *experiment.PreparedRender
	key      string
	timeout  time.Duration
}

// invalid wraps a validation failure with the harness sentinel so it
// classifies as invalid_spec.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", experiment.ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// newRenderSpec checks the fields only the wire has, applies the
// server's deadline policy, and prepares the render through the
// harness, which rejects every option it could not render and derives
// the flight key. The options name the disk tier whenever the server
// has one, so a render the breaker lets through needs no second
// preparation.
func (s *Server) newRenderSpec(req RenderRequest) (renderSpec, error) {
	if req.TimeoutMS < 0 {
		return renderSpec{}, invalid("negative timeout_ms %d", req.TimeoutMS)
	}
	// faults.Intensity clamps its level into [0,1], so the harness
	// never sees an out-of-range one.
	if req.FaultIntensity < 0 || req.FaultIntensity > 1 {
		return renderSpec{}, invalid("fault_intensity %g outside [0,1]", req.FaultIntensity)
	}
	spec := renderSpec{
		artifact: req.Artifact,
		format:   experiment.ArtifactFormat(req.Format),
		opt:      req.options(),
		timeout:  s.cfg.DefaultTimeout,
	}
	if s.store != nil {
		spec.opt.CacheDir = s.cfg.CacheDir
	}
	spec.opt.CacheMaxBytes = s.cfg.CacheMaxBytes
	var err error
	if spec.render, err = experiment.PrepareRender(spec.artifact, spec.format, spec.opt); err != nil {
		return renderSpec{}, err
	}
	if spec.key, err = spec.render.Key(); err != nil {
		return renderSpec{}, err
	}
	if req.TimeoutMS > 0 {
		// Bound the milliseconds before converting: past about 292
		// years the nanosecond count wraps negative.
		spec.timeout = time.Duration(min(req.TimeoutMS, int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
	}
	if spec.timeout > s.cfg.MaxTimeout {
		spec.timeout = s.cfg.MaxTimeout
	}
	return spec, nil
}

// options copies the request onto the harness defaults: a zero field
// keeps its experiment.DefaultOptions value, and the harness resolves
// every other default itself.
func (r RenderRequest) options() experiment.Options {
	opt := experiment.DefaultOptions()
	if r.Instructions != 0 {
		opt.Instructions = r.Instructions
	}
	if r.Seed != 0 {
		opt.Seed = r.Seed
	}
	opt.Benchmarks = r.Benchmarks
	for _, name := range r.Schemes {
		opt.Schemes = append(opt.Schemes, experiment.Scheme(name))
	}
	opt.PIDIntervalTicks = r.PIDIntervalTicks
	opt.Faults = faults.Intensity(r.FaultIntensity, r.FaultSeed)
	opt.Cores = r.Cores
	opt.PowerCapW = r.PowerCapW
	opt.Governor = r.Governor
	opt.GovernorGain = r.GovernorGain
	return opt
}
