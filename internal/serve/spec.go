package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/scheme"
	"mcddvfs/internal/trace"
)

// RenderRequest is the wire form of one experiment spec: which catalog
// artifact to render, how, and under what simulation options. Zero
// fields take the harness defaults, so {"artifact":"fig9",
// "format":"txt"} is a complete request. Every field is validated
// against the registries before the request is admitted — an
// unrunnable spec is rejected as invalid_spec without consuming a
// worker slot.
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
	// Benchmarks narrows the workload set (nil = artifact default).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Schemes narrows the matrix columns (nil = the paper's core
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
	// default; clamped to the server maximum). Excluded from the cache
	// identity: it bounds how long this request waits, never the render
	// it may share with other requests.
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

// renderSpec is a validated, normalized request plus the effective
// deadline of the request's own wait.
type renderSpec struct {
	req     RenderRequest
	format  experiment.ArtifactFormat
	timeout time.Duration
}

// invalid wraps a validation failure with the harness sentinel so it
// classifies as invalid_spec.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", experiment.ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// validateSpec checks req against the artifact catalog and the
// benchmark and scheme registries, applies the server's deadline
// policy, and returns the normalized spec.
func validateSpec(req RenderRequest, defaultTimeout, maxTimeout time.Duration) (renderSpec, error) {
	var info experiment.ArtifactInfo
	found := false
	for _, a := range experiment.Artifacts() {
		if a.ID == req.Artifact {
			info, found = a, true
			break
		}
	}
	if !found {
		return renderSpec{}, invalid("unknown artifact %q", req.Artifact)
	}
	format := experiment.ArtifactFormat(req.Format)
	if format.ContentType() == "" {
		return renderSpec{}, invalid("unknown format %q (txt, json, svg)", req.Format)
	}
	if format == experiment.FormatSVG && !info.SVG {
		return renderSpec{}, invalid("artifact %q has no SVG rendering", req.Artifact)
	}
	for _, b := range req.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return renderSpec{}, invalid("unknown benchmark %q", b)
		}
	}
	for _, s := range req.Schemes {
		d, ok := scheme.Lookup(s)
		if !ok {
			return renderSpec{}, invalid("unknown scheme %q (registered: %s)", s, scheme.NamesList())
		}
		if !d.Controlled && d.Name != "none" {
			return renderSpec{}, invalid("scheme %q does not control frequency", s)
		}
	}
	if req.Instructions < 0 {
		return renderSpec{}, invalid("negative instruction budget %d", req.Instructions)
	}
	if req.PIDIntervalTicks < 0 {
		return renderSpec{}, invalid("negative pid_interval_ticks %d", req.PIDIntervalTicks)
	}
	if req.FaultIntensity < 0 || req.FaultIntensity > 1 {
		return renderSpec{}, invalid("fault_intensity %g outside [0,1]", req.FaultIntensity)
	}
	if req.TimeoutMS < 0 {
		return renderSpec{}, invalid("negative timeout_ms %d", req.TimeoutMS)
	}
	if req.Cores < 0 {
		return renderSpec{}, invalid("negative cores %d", req.Cores)
	}
	if req.Cores > mcd.MaxChipCores {
		return renderSpec{}, invalid("cores %d exceeds the %d-core chip bound", req.Cores, mcd.MaxChipCores)
	}
	if req.PowerCapW < 0 {
		return renderSpec{}, invalid("negative power_cap_w %g", req.PowerCapW)
	}
	if req.GovernorGain < 0 {
		return renderSpec{}, invalid("negative governor_gain %g", req.GovernorGain)
	}
	if req.Governor != "" {
		d, ok := governor.Lookup(req.Governor)
		if !ok {
			return renderSpec{}, invalid("unknown governor %q (registered: %s)", req.Governor, governor.NamesList())
		}
		if req.PowerCapW > 0 && !d.Capping {
			return renderSpec{}, invalid("governor %q does not cap power", req.Governor)
		}
	}
	timeout := defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if maxTimeout > 0 && timeout > maxTimeout {
		timeout = maxTimeout
	}
	// Normalize the defaults into the request itself so that an
	// omitted field and its explicit default are one spec: one flight
	// key, one set of cache entries, and — because these are the same
	// defaults the CLIs flag in — bytes identical to a CLI render.
	def := experiment.DefaultOptions()
	if req.Instructions == 0 {
		req.Instructions = def.Instructions
	}
	if req.Seed == 0 {
		req.Seed = def.Seed
	}
	// Chip-field normalization, same one-spec rule: a 1-core chip IS the
	// default single-core machine, an explicit "none" with no budget IS
	// the default governor, and a budget with no governor named selects
	// integral-gain (mirroring the harness's governorName resolution).
	if req.Cores == 1 {
		req.Cores = 0
	}
	if req.Governor == "none" && req.PowerCapW == 0 {
		req.Governor = ""
	}
	if req.Governor == "" && req.PowerCapW > 0 {
		req.Governor = "integral-gain"
	}
	return renderSpec{req: req, format: format, timeout: timeout}, nil
}

// key is the spec's content address: the sha256 of its canonical JSON
// with the deadline zeroed. Two requests for the same artifact under
// the same options share one flight (and one set of cache entries) no
// matter what deadlines they carry.
func (s renderSpec) key() string {
	id := s.req
	id.TimeoutMS = 0
	blob, err := json.Marshal(id)
	if err != nil {
		// RenderRequest is plain data; Marshal cannot fail. Guard with
		// a unique key so a future field type mistake degrades to
		// duplicate work, not shared wrong results.
		return fmt.Sprintf("unkeyed:%p", &s)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// options translates the spec into harness options. cacheDir is empty
// when the breaker has taken the disk tier away.
func (s renderSpec) options(cacheDir string, cacheMaxBytes int64) experiment.Options {
	opt := experiment.Options{
		Instructions:     s.req.Instructions,
		Seed:             s.req.Seed,
		Benchmarks:       s.req.Benchmarks,
		PIDIntervalTicks: s.req.PIDIntervalTicks,
		CacheDir:         cacheDir,
		CacheMaxBytes:    cacheMaxBytes,
		Cores:            s.req.Cores,
		PowerCapW:        s.req.PowerCapW,
		Governor:         s.req.Governor,
		GovernorGain:     s.req.GovernorGain,
	}
	if s.req.FaultIntensity > 0 {
		opt.Faults = faults.Intensity(s.req.FaultIntensity, s.req.FaultSeed)
	}
	for _, name := range s.req.Schemes {
		opt.Schemes = append(opt.Schemes, experiment.Scheme(name))
	}
	return opt
}
