// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation (Section 5), mapping each artifact
// to the simulator, controllers, and analyses in the other packages.
// See DESIGN.md for the experiment index.
package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"mcddvfs/internal/control"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/scheme"
	"mcddvfs/internal/trace"
)

// Scheme names a DVFS control scheme. Valid values are the names in
// the scheme registry (internal/scheme); the constants below cover the
// paper's evaluation, and scheme.NamesList() lists everything registered.
type Scheme string

// The four evaluated schemes: the no-DVFS baseline (all domains at
// f_max), the paper's adaptive controller, and the two fixed-interval
// prior-work schemes. SchemeGlobal is a registered extension (see
// internal/scheme/global.go); further extensions need no constant here
// at all — any registered name is a valid Scheme.
const (
	SchemeNone        Scheme = "none"
	SchemeAdaptive    Scheme = "adaptive"
	SchemePID         Scheme = "pid"
	SchemeAttackDecay Scheme = "attack-decay"
	SchemeGlobal      Scheme = "global"
)

// ControlledSchemes lists the paper's core comparison — the registered
// frequency-scaling schemes outside the extension set — in registry
// display order. It is the default column set of every benchmark ×
// scheme artifact, so its contents are part of the byte-stability
// contract (see scheme.Descriptor.Extension).
func ControlledSchemes() []Scheme {
	ds := scheme.Default()
	out := make([]Scheme, len(ds))
	for i, d := range ds {
		out[i] = Scheme(d.Name)
	}
	return out
}

// Options configures a harness run.
type Options struct {
	// Instructions per benchmark run. The paper simulates millions of
	// instructions; half a million is enough for every trend here and
	// keeps the full matrix under a minute.
	Instructions int64
	// Seed for trace generation and clock jitter.
	Seed int64
	// Benchmarks restricts the suite (nil = all 17, or the default list
	// of an artifact that has its own).
	//lint:allow cachekey selects which runs happen, not what any run computes
	Benchmarks []string
	// Schemes restricts the benchmark × scheme sweeps (RunMatrixContext,
	// the fault sweep, and the figures they feed) to this subset of
	// registered frequency-controlling schemes, validated against the
	// scheme registry and normalized to registry display order (empty
	// = the paper's core comparison, ControlledSchemes). The no-DVFS
	// baseline always runs regardless — every metric is measured
	// against it. Like Benchmarks, this selects which runs happen, not
	// what any run computes, so it never enters the result-cache key.
	//lint:allow cachekey selects which runs happen, not what any run computes
	Schemes []Scheme
	// FaultIntensities sets the robustness sweep's grid of fault
	// intensities, each in [0,1] (empty = DefaultFaultIntensities).
	// Like Schemes, it selects which runs happen: each run keys by the
	// faults.Intensity profile its level derives, never by the grid.
	FaultIntensities []float64
	// PIDIntervalTicks overrides the PID decision interval (0 = the
	// 2500-tick default) — used by the Table-3 sweep.
	PIDIntervalTicks int
	// MutateAdaptive, when non-nil, adjusts each adaptive controller's
	// configuration — used by the ablation experiments.
	MutateAdaptive func(*control.Config)
	// Machine, when non-nil, replaces the Table-1 machine config.
	Machine *mcd.Config
	// Faults, when enabled, injects deterministic sensor/actuator
	// faults into the control loop (overriding Machine.Faults). The
	// zero value leaves every run bit-identical to a fault-free one.
	Faults faults.Config
	// Timeout bounds how long each individual run waits for its
	// result; a run that exceeds it fails with ErrRunTimeout
	// (0 = unbounded). It bounds this caller only: a simulation shared
	// with a concurrent caller keeps running for that caller.
	//lint:allow cachekey bounds the attempt, not the result a successful run computes
	Timeout time.Duration
	// CacheDir, when non-empty, enables the persistent on-disk result
	// cache rooted at that directory (cmd/experiments defaults it to
	// results/.cache): completed simulations survive process death and
	// a warm rerun only decodes them. Empty — the zero-config default —
	// keeps memoization in-process only, so plain Run behavior is
	// unchanged.
	//lint:allow cachekey says where results are stored, not what they are
	CacheDir string
	// CacheMaxBytes caps the on-disk cache's total size; the
	// least-recently-used entries are evicted past it (0 = the
	// diskcache default).
	//lint:allow cachekey says where results are stored, not what they are
	CacheMaxBytes int64
	// RowFlush, when non-nil, is called by RunMatrixContext as
	// benchmark rows complete, in benchmark order — the hook
	// incremental artifact rendering hangs off, so long sweeps emit
	// figure rows as they finish instead of only at the end. Purely
	// observational: it receives copies and alters no result.
	//lint:allow cachekey observation hook; receives results, never shapes them
	RowFlush func(RowEvent)
	// Cores sets the chip size: every matrix cell (and RunProfile
	// call) simulates Cores copies of the machine running the
	// benchmark, coupled only by the chip governor, and reports the
	// chip aggregate. 0 or 1 is a single core, whose aggregate is that
	// core's own Result.
	Cores int
	// PowerCapW is the chip-wide power budget in watts a capping
	// governor holds the chip to (0 = unbudgeted). Setting it without
	// naming a Governor selects "integral-gain".
	PowerCapW float64
	// Governor names the chip-level power-cap policy from the governor
	// registry ("" = "none"; governor.NamesList() lists everything
	// registered).
	Governor string
	// GovernorGain overrides the governor's integral gain in MHz of
	// frequency allowance per watt of budget error per epoch (0 = the
	// governor's default).
	GovernorGain float64
	// Harness, when non-nil, holds the memos and disk stores the runs
	// read and fill (nil = the process default; see NewHarness). Like
	// CacheDir, it says where results are kept, never what a run
	// computes.
	//lint:allow cachekey says where results are kept, not what they are
	Harness *Harness
}

// chipCores is the normalized core count (at least one).
func (o Options) chipCores() int {
	if o.Cores < 1 {
		return 1
	}
	return o.Cores
}

// governorName resolves the effective governor: an explicit name wins,
// a bare power budget implies the integral-gain regulator, and the
// default is "none".
func (o Options) governorName() string {
	if o.Governor != "" {
		return o.Governor
	}
	if o.PowerCapW > 0 {
		return "integral-gain"
	}
	return governor.DefaultName
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{Instructions: 500000, Seed: 1}
}

func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = 500000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = suiteNames
	}
	return o
}

// suiteNames is the default benchmark list, shared read-only by every
// Options that takes it: the harness never writes into
// Options.Benchmarks, and RunMatrixContext gives the Matrix it returns
// a list of its own.
var suiteNames = trace.Names()

// withBenchmarks is withDefaults for an artifact with a benchmark list
// of its own: an empty selection takes defaults instead of the suite.
func (o Options) withBenchmarks(defaults []string) Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = defaults
	}
	return o.withDefaults()
}

func (o Options) machine() mcd.Config {
	var cfg mcd.Config
	if o.Machine != nil {
		cfg = *o.Machine
	} else {
		cfg = mcd.DefaultConfig()
		cfg.Seed = o.Seed
		// Bound retained occupancy samples: classification and Figure 8
		// need at most ~130K samples (524 µs at 250 MHz); controllers
		// run off live values regardless.
		cfg.SampleLimit = 1 << 17
	}
	if o.Faults.Enabled() {
		cfg.Faults = o.Faults
	}
	return cfg
}

// RunOneContext simulates a single bundled benchmark under one scheme;
// ctx cancels it.
func RunOneContext(ctx context.Context, bench string, scheme Scheme, opt Options) (*mcd.Result, error) {
	prof, err := trace.ByName(bench)
	if err != nil {
		return nil, invalidSpec(err)
	}
	return RunProfileContext(ctx, prof, scheme, opt)
}

// RunProfileContext simulates an arbitrary workload profile under one
// scheme. Results are memoized per harness (see cache.go): two calls
// with inputs that hash to the same simulation share one run and one
// *mcd.Result, so callers must not mutate what they get back. Every
// failure wraps one of the taxonomy sentinels: a request that could
// never run returns ErrInvalidSpec; a run that exceeds opt.Timeout
// returns ErrRunTimeout; cancellation returns ErrCancelled; a panic in
// the simulator is recovered into ErrRunPanicked.
func RunProfileContext(ctx context.Context, prof trace.Profile, scheme Scheme, opt Options) (*mcd.Result, error) {
	return runCell(orBackground(ctx), newRunSpec(opt), prof, scheme, nil, false)
}

// runCell runs one benchmark as a cell: a homogeneous chip of
// opt.Cores copies (one by default) through the shared cached path,
// reported as the chip aggregate — for one core, that core's own
// Result. k, when non-nil, is the cell's key as cacheKey already
// derived it. headOnly is cachedRun's: the caller reads no occupancy
// series, and the result may hold none.
func runCell(ctx context.Context, s *runSpec, prof trace.Profile, scheme Scheme, k *[sha256.Size]byte, headOnly bool) (*mcd.Result, error) {
	if err := s.validate(prof, scheme); err != nil {
		return nil, err
	}
	cr, err := cachedRun(ctx, s, chipProfiles(prof, s.opt), scheme, k, headOnly)
	if err != nil {
		return nil, err
	}
	return cr.Aggregate(), nil
}

// runSpec is one Options prepared for every run that shares them — a
// matrix, a classification pass, a single run. newRunSpec applies the
// defaults, resolves the harness and makes the options-level checks
// once; the per-Options part of the cache key is found in the
// harness's key memo, with the machine check's verdict, or encoded
// lazily by the first key derived (see keyParts).
type runSpec struct {
	opt                 Options  // defaults applied
	h                   *Harness // opt.Harness, or the default
	machineErr, chipErr error    // the options-level checks' verdicts

	memoKey  keyProjection // the key memo's key for s's key tail, if plainKey
	plainKey bool
	memoHit  bool // tail came from the key memo

	bank *traceBank // core 0's streams in a matrix; nil for every other run

	keyOnce sync.Once
	tail    []byte // cacheKey's JSON after the scheme
	keyErr  error
}

// newRunSpec prepares opt for a batch of runs. A plain spec whose key
// tail its harness has memoized takes the machine check's verdict
// from the memo too, and builds no machine configuration.
func newRunSpec(opt Options) *runSpec {
	s := &runSpec{opt: opt.withDefaults(), h: opt.Harness}
	if s.h == nil {
		s.h = defaultHarness
	}
	s.memoKey, s.plainKey = projectKey(s.opt)
	if s.plainKey {
		var kt keyMemoEntry
		if kt, s.memoHit = s.h.memoizedKey(s.memoKey); s.memoHit {
			s.tail, s.machineErr = kt.tail, kt.machineErr
		}
	}
	if !s.memoHit {
		cfg := s.opt.machine()
		if err := cfg.Validate(); err != nil {
			s.machineErr = invalidSpec(err)
		}
	}
	_, s.chipErr = validateChip(s.opt)
	return s
}

// validate front-loads every input check so bad specs surface as
// ErrInvalidSpec at the API boundary instead of panics (or cryptic
// construction errors) from deep inside the simulator. The profile is
// checked first, then the machine, then the scheme and its per-scheme
// options against the registry, then the chip options.
func (s *runSpec) validate(prof trace.Profile, sch Scheme) error {
	if err := prof.Validate(); err != nil {
		return invalidSpec(err)
	}
	if s.machineErr != nil {
		return s.machineErr
	}
	desc, err := lookupScheme(sch)
	if err != nil {
		return err
	}
	if desc.Validate != nil {
		if err := desc.Validate(s.opt.schemeOptions()); err != nil {
			return invalidSpec(err)
		}
	}
	return s.chipErr
}

// validateChip checks the chip-level options against the governor
// registry and returns the resolved governor descriptor. The defaults
// (one core, no budget, no governor) always validate.
func validateChip(opt Options) (governor.Descriptor, error) {
	if opt.Cores < 0 {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: negative core count %d", opt.Cores))
	}
	if opt.Cores > mcd.MaxChipCores {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: %d cores exceeds the %d-core chip bound", opt.Cores, mcd.MaxChipCores))
	}
	if opt.PowerCapW < 0 {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: negative power cap %v W", opt.PowerCapW))
	}
	if opt.GovernorGain < 0 {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: negative governor gain %v MHz/W", opt.GovernorGain))
	}
	name := opt.governorName()
	desc, ok := governor.Lookup(name)
	if !ok {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: unknown governor %q (registered: %s)", name, governor.NamesList()))
	}
	if opt.PowerCapW > 0 && !desc.Capping {
		return governor.Descriptor{}, invalidSpec(fmt.Errorf("experiment: governor %q does not cap power; a power budget needs one of the capping governors", name))
	}
	if desc.Validate != nil && desc.Capping {
		if err := desc.Validate(opt.governorOptions()); err != nil {
			return governor.Descriptor{}, invalidSpec(err)
		}
	}
	return desc, nil
}

// governorOptions projects the harness options onto the governor
// registry's view.
func (o Options) governorOptions() governor.Options {
	return governor.Options{
		Cores:       o.chipCores(),
		BudgetW:     o.PowerCapW,
		GainMHzPerW: o.GovernorGain,
		Range:       o.machine().Range,
	}
}

// lookupScheme resolves a scheme name against the registry; unknown
// names fail as ErrInvalidSpec listing what is registered.
func lookupScheme(sch Scheme) (scheme.Descriptor, error) {
	desc, ok := scheme.Lookup(string(sch))
	if !ok {
		return scheme.Descriptor{}, invalidSpec(fmt.Errorf("experiment: unknown scheme %q (registered: %s)", sch, scheme.NamesList()))
	}
	return desc, nil
}

// schemeOptions projects the harness options onto the registry's view:
// the knobs a scheme's Validate and Attach hooks may consult.
func (o Options) schemeOptions() scheme.Options {
	return scheme.Options{
		Machine:          o.Machine,
		MutateAdaptive:   o.MutateAdaptive,
		PIDIntervalTicks: o.PIDIntervalTicks,
	}
}

// AttachScheme wires the controllers for a scheme onto an existing
// processor — the hook for tools that build their own Processor (e.g.
// trace replay).
func AttachScheme(p *mcd.Processor, sch Scheme, opt Options) error {
	return attach(p, sch, opt)
}

// attach resolves the scheme against the registry and lets its
// descriptor wire one controller instance per controlled domain. The
// per-scheme wiring (reference occupancies, front-end control, the
// global engine's ports) lives with each descriptor in
// internal/scheme; this function only dispatches.
func attach(p *mcd.Processor, sch Scheme, opt Options) error {
	desc, err := lookupScheme(sch)
	if err != nil {
		return err
	}
	return desc.Attach(p, opt.schemeOptions())
}

// Matrix holds the benchmark × scheme result grid that Figures 9–11
// share, so the expensive simulations run once.
type Matrix struct {
	Options    Options
	Benchmarks []string
	// Schemes is the controlled-scheme subset this matrix swept (the
	// no-DVFS baseline is implicit and always present). Renderers use
	// it to size and order their columns; nil means the default set,
	// ControlledSchemes, so hand-built matrices stay valid.
	Schemes []Scheme
	// Results[bench][scheme]
	Results map[string]map[Scheme]*mcd.Result
	// Failures lists the cells that did not produce a result (panic,
	// timeout, cancellation, bad spec). The rest of the matrix is
	// intact; renderers skip incomplete rows.
	Failures []CellError
}

// RunMatrixContext simulates every benchmark under every scheme
// (including the baseline). Cells run in parallel — every simulation
// is an independent, internally deterministic single-threaded machine,
// so the matrix contents are identical to a serial run.
//
// A failing cell does not abort the sweep: its structured error goes
// to Matrix.Failures and every other cell completes. The returned
// error is non-nil only when the whole sweep is compromised — ctx was
// cancelled, or not a single cell succeeded. On cancellation the
// partial matrix is returned alongside an ErrCancelled error so
// callers can flush what finished.
func RunMatrixContext(ctx context.Context, opt Options) (*Matrix, error) {
	ctx = orBackground(ctx)
	if len(opt.Benchmarks) == 0 {
		// The matrix hands its list to the caller: a copy, not
		// suiteNames.
		opt.Benchmarks = trace.Names()
	}
	opt = opt.withDefaults()
	controlled, err := matrixSchemes(opt)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		Options:    opt,
		Benchmarks: opt.Benchmarks,
		Schemes:    controlled,
		Results:    make(map[string]map[Scheme]*mcd.Result, len(opt.Benchmarks)),
	}
	schemes := append([]Scheme{SchemeNone}, controlled...)
	var cells []matrixCell
	for _, b := range opt.Benchmarks {
		m.Results[b] = make(map[Scheme]*mcd.Result, len(schemes))
		for _, s := range schemes {
			cells = append(cells, matrixCell{bench: b, scheme: s})
		}
	}

	// Every cell takes core 0's stream from the bank, which records
	// each benchmark once in the harness's replay memo for every
	// scheme's cell. Cores ≥ 1 of a chip-mode cell stream from
	// generators; see tracebank.go.
	spec := newRunSpec(opt)
	bank := newTraceBank(spec, len(schemes))
	spec.bank = bank

	var mu sync.Mutex
	var flush *rowFlusher
	if opt.RowFlush != nil {
		flush = newRowFlusher(opt.Benchmarks, controlled, opt.RowFlush, func(bench string) (map[Scheme]*mcd.Result, bool) {
			mu.Lock()
			defer mu.Unlock()
			row := make(map[Scheme]*mcd.Result, len(m.Results[bench]))
			for s, r := range m.Results[bench] {
				row[s] = r
			}
			return row, m.Complete(bench)
		})
	}
	store := func(c *matrixCell, res *mcd.Result, err error) error {
		if err != nil {
			return err
		}
		if c.headOnly() {
			// Only baseline occupancy series feed the classifier; drop
			// the rest to keep the full matrix small. Results may be
			// shared through the cache, so strip a copy. A cell read
			// head-only from disk has none to drop.
			cp := *res
			cp.QueueSamples = nil
			res = &cp
		}
		mu.Lock()
		m.Results[c.bench][c.scheme] = res
		mu.Unlock()
		return nil
	}

	// Memo hits are served here, on the calling goroutine: a warm cell
	// costs one key and one map lookup, less than its hand-off to a
	// worker. Every other cell goes to the pool — a miss carrying the
	// key derived here, or a cell whose profile, checks or key failed,
	// for the pool to report. Once ctx ends nothing more is served and
	// the pool reports the rest as cancelled.
	cellErrs := make([]error, len(cells))
	var pool []int
	prof := benchProfile{ks: keyScratchPool.Get().(*keyScratch)}
	defer keyScratchPool.Put(prof.ks)
	for i := range cells {
		c := &cells[i]
		if ctx.Err() == nil {
			if res, hit, err := c.memoHit(spec, &prof); hit {
				cellErrs[i] = store(c, res, err)
				// Every cell releases its claim and retires exactly once,
				// served here or by the pool.
				bank.release(c.bench)
				if flush != nil {
					flush.cellDone(c.bench)
				}
				continue
			}
		}
		pool = append(pool, i)
	}
	errs := forEachParallel(ctx, len(pool), func(j int) error {
		c := &cells[pool[j]]
		if flush != nil {
			// Success or failure, the cell is done for row-completion
			// purposes; cells skipped by cancellation are drained after
			// the sweep instead.
			defer flush.cellDone(c.bench)
		}
		// Every cell releases its claim exactly once, even on error, so
		// streams free as benchmarks drain.
		defer bank.release(c.bench)
		prof, err := trace.ByName(c.bench)
		if err != nil {
			return invalidSpec(err)
		}
		var k *[sha256.Size]byte
		if c.keyed {
			k = &c.key
		}
		res, err := runCell(ctx, spec, prof, c.scheme, k, c.headOnly())
		return store(c, res, err)
	})
	for _, te := range errs {
		cellErrs[pool[te.index]] = te.err
	}
	for i, err := range cellErrs {
		if err != nil {
			m.Failures = append(m.Failures, CellError{Bench: cells[i].bench, Scheme: cells[i].scheme, Err: err})
		}
	}
	bank.close()
	if flush != nil {
		// Emit whatever rows the ordered frontier is still holding —
		// complete rows stuck behind an earlier failed or cancelled
		// bench, and the partial rows themselves — so interruption and
		// completion share one flush path.
		flush.drain()
	}
	if err := ctx.Err(); err != nil {
		return m, fmt.Errorf("matrix: %w: %v", ErrCancelled, err)
	}
	if len(m.Failures) == len(cells) && len(cells) > 0 {
		return m, fmt.Errorf("matrix: every cell failed, first: %w", m.Failures[0].Err)
	}
	return m, nil
}

// matrixCell is one (benchmark, scheme) cell of a matrix sweep.
type matrixCell struct {
	bench  string
	scheme Scheme
	key    [sha256.Size]byte // the cell's cacheKey, once keyed
	keyed  bool
}

// headOnly reports whether the matrix keeps the cell's occupancy
// series: only the no-DVFS baseline's feed the classifier, so every
// controlled cell is resolved head-only.
func (c *matrixCell) headOnly() bool { return c.scheme != SchemeNone }

// benchProfile is the profile JSON of the benchmark whose cells a
// matrix is keying, in the matrix's keyScratch. Cells come benchmark
// by benchmark, so each benchmark's profiles are encoded once for all
// its schemes.
type benchProfile struct {
	bench   string
	encoded bool // ks holds bench's profile JSON
	ks      *keyScratch
}

// memoHit serves the cell from the result memo when its outcome is
// already there, counted as a hit exactly as cachedRun counts one. It
// derives the cell's key, with the profile JSON in bp when bp holds
// the cell's benchmark, and keeps it on the cell for the pool. hit is
// false, and nothing is counted, for a miss or for a cell whose
// profile, checks or key fail: the pool runs those, and reports them.
func (c *matrixCell) memoHit(s *runSpec, bp *benchProfile) (res *mcd.Result, hit bool, err error) {
	prof, err := trace.ByName(c.bench)
	if err != nil || s.validate(prof, c.scheme) != nil {
		return nil, false, nil
	}
	if bp.bench != c.bench || !bp.encoded {
		bp.bench = c.bench
		bp.ks.profs = appendChipProfiles(bp.ks.profs[:0], prof, s.opt)
		bp.encoded = bp.ks.encodeProfiles() == nil
	}
	if !bp.encoded {
		return nil, false, nil
	}
	if c.key, err = s.keyFor(bp.ks, c.scheme); err != nil {
		return nil, false, nil
	}
	c.keyed = true
	o, hit := s.h.memoized(c.key, c.headOnly())
	if !hit || o.err != nil {
		return nil, hit, o.err
	}
	return o.res.Aggregate(), true, nil
}

// matrixSchemes resolves Options.Schemes to the controlled-scheme
// columns a matrix sweeps: an empty subset means the paper's core
// comparison, otherwise every requested name must be a registered
// frequency-controlling scheme. The subset is normalized to registry
// display order, deduplicated, and the implicit "none" baseline is
// dropped (it always runs).
func matrixSchemes(opt Options) ([]Scheme, error) {
	if len(opt.Schemes) == 0 {
		return ControlledSchemes(), nil
	}
	requested := make(map[string]bool, len(opt.Schemes))
	for _, s := range opt.Schemes {
		if s == SchemeNone {
			continue // the baseline is implicit in every matrix
		}
		desc, err := lookupScheme(s)
		if err != nil {
			return nil, err
		}
		if !desc.Controlled {
			return nil, invalidSpec(fmt.Errorf("experiment: scheme %q does not control frequency; matrix columns must (registered controlled schemes: %s)", s, controlledNamesList()))
		}
		requested[desc.Name] = true
	}
	if len(requested) == 0 {
		return nil, invalidSpec(fmt.Errorf("experiment: scheme subset selects no controlled scheme (registered controlled schemes: %s)", controlledNamesList()))
	}
	var out []Scheme
	for _, d := range scheme.All() {
		if requested[d.Name] {
			out = append(out, Scheme(d.Name))
		}
	}
	return out, nil
}

// controlledNamesList renders every registered frequency-controlling
// scheme (extensions included) for error messages.
func controlledNamesList() string {
	var names []string
	for _, d := range scheme.All() {
		if d.Controlled {
			names = append(names, d.Name)
		}
	}
	return strings.Join(names, ", ")
}

// schemes returns the controlled-scheme columns of this matrix,
// falling back to the default set for hand-built matrices that never
// populated the field.
func (m *Matrix) schemes() []Scheme {
	if m.Schemes != nil {
		return m.Schemes
	}
	return ControlledSchemes()
}

// Complete reports whether a benchmark has a result for the baseline
// and every controlled scheme in the matrix.
func (m *Matrix) Complete(bench string) bool {
	row := m.Results[bench]
	if row[SchemeNone] == nil {
		return false
	}
	for _, s := range m.schemes() {
		if row[s] == nil {
			return false
		}
	}
	return true
}

// Compare returns the paper's three metrics for one benchmark/scheme
// cell against the no-DVFS baseline. A cell missing due to a recorded
// failure compares as zero.
func (m *Matrix) Compare(bench string, scheme Scheme) power.Comparison {
	base := m.Results[bench][SchemeNone]
	run := m.Results[bench][scheme]
	if base == nil || run == nil {
		return power.Comparison{}
	}
	return power.Compare(base.Metrics, run.Metrics)
}

// MeanComparison averages a scheme's metrics over a benchmark subset
// (nil = all), skipping benchmarks whose cells failed.
func (m *Matrix) MeanComparison(scheme Scheme, subset []string) power.Comparison {
	if subset == nil {
		subset = m.Benchmarks
	}
	var sum power.Comparison
	n := 0.0
	for _, b := range subset {
		if m.Results[b][SchemeNone] == nil || m.Results[b][scheme] == nil {
			continue
		}
		c := m.Compare(b, scheme)
		sum.EnergySaving += c.EnergySaving
		sum.PerfDegradation += c.PerfDegradation
		sum.EDPImprovement += c.EDPImprovement
		n++
	}
	if n == 0 {
		return power.Comparison{}
	}
	sum.EnergySaving /= n
	sum.PerfDegradation /= n
	sum.EDPImprovement /= n
	return sum
}

// Report is one rendered table or figure.
type Report struct {
	ID    string
	Title string
	// Lines are preformatted body rows.
	Lines []string
	// Notes carry the paper-expected-vs-measured commentary recorded
	// in EXPERIMENTS.md.
	Notes []string
}

// WriteTo renders the report as text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s: %s ====\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the report to a string.
func (r *Report) String() string {
	var sb strings.Builder
	r.WriteTo(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}
