package mcddvfs

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 17 {
		t.Fatalf("got %d benchmarks, want 17", len(bs))
	}
	if _, err := BenchmarkProfile(bs[0]); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkProfile("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunDefaultsToAdaptive(t *testing.T) {
	res, err := Run(RunSpec{Benchmark: "gzip", Instructions: 40000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != string(SchemeAdaptive) {
		t.Errorf("scheme = %q, want adaptive", res.Scheme)
	}
	if res.Metrics.Instructions != 40000 {
		t.Errorf("retired %d", res.Metrics.Instructions)
	}
}

// TestRunSeedDefaultsToOne: an unset Seed is the documented default,
// 1, not seed 0.
func TestRunSeedDefaultsToOne(t *testing.T) {
	unset, err := Run(RunSpec{Benchmark: "gzip", Instructions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(RunSpec{Benchmark: "gzip", Instructions: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unset.Metrics, one.Metrics) {
		t.Errorf("unset seed simulates %+v, Seed 1 simulates %+v", unset.Metrics, one.Metrics)
	}
}

func TestCompareRunsEndToEnd(t *testing.T) {
	base, err := Run(RunSpec{Benchmark: "swim", Scheme: SchemeNone, Instructions: 120000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run(RunSpec{Benchmark: "swim", Scheme: SchemeAdaptive, Instructions: 120000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := CompareRuns(base, ad)
	if c.EnergySaving <= 0 {
		t.Errorf("adaptive saved no energy on swim: %+v", c)
	}
	if c.PerfDegradation > 0.15 {
		t.Errorf("perf degradation %.1f%% too high", 100*c.PerfDegradation)
	}
}

func TestTuneAdaptiveHook(t *testing.T) {
	called := 0
	_, err := Run(RunSpec{
		Benchmark:    "gzip",
		Instructions: 20000,
		Seed:         5,
		TuneAdaptive: func(c *ControllerConfig) { called++; c.TM0 = 100 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One call per controlled domain wiring the controllers, plus one
	// per domain replaying the hook against scratch defaults for the
	// result-cache key (see experiment/cache.go).
	if called != 6 {
		t.Errorf("tune hook called %d times, want 6", called)
	}
}

func TestDefaultControllerPerDomain(t *testing.T) {
	if DefaultController(DomainInt).QRef != 7 {
		t.Error("INT QRef != 7")
	}
	if DefaultController(DomainFP).QRef != 4 || DefaultController(DomainLS).QRef != 4 {
		t.Error("FP/LS QRef != 4")
	}
}

func TestDefaultMachineValid(t *testing.T) {
	cfg := DefaultMachine()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyWorkloadAPI(t *testing.T) {
	n := 1 << 14
	fast := make([]float64, n)
	for i := range fast {
		fast[i] = 5 + 4*math.Sin(2*math.Pi*float64(i)/500)
	}
	share, isFast, err := ClassifyWorkload(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !isFast || share < 0.9 {
		t.Errorf("sinusoid at wavelength 500 not fast: share=%.3f fast=%v", share, isFast)
	}
}

func TestDefaultStabilitySystem(t *testing.T) {
	s := DefaultStabilitySystem()
	if !s.Stable(1) {
		t.Error("default system unstable")
	}
}

func TestNewMatrixSmall(t *testing.T) {
	m, err := NewMatrix(Options{Instructions: 20000, Seed: 5, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results["gzip"]) != 4 {
		t.Errorf("matrix cell count = %d, want 4 schemes", len(m.Results["gzip"]))
	}
}

func TestTraceAPIRoundTrip(t *testing.T) {
	prof, err := BenchmarkProfile("gzip")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTraceGenerator(prof, 9, 20000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, gen, 20000); err != nil {
		t.Fatal(err)
	}
	r, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTrace(r, RunSpec{Scheme: SchemeAdaptive, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Instructions != 20000 {
		t.Errorf("replayed %d instructions", res.Metrics.Instructions)
	}
	if res.Benchmark != "gzip" {
		t.Errorf("benchmark label = %q", res.Benchmark)
	}
}

func TestRunTraceMatchesRunExactly(t *testing.T) {
	// Replaying a captured trace must reproduce the generator-driven
	// run bit for bit (same seed drives the machine's jitter).
	direct, err := Run(RunSpec{Benchmark: "gzip", Scheme: SchemeNone, Instructions: 15000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := BenchmarkProfile("gzip")
	gen, _ := NewTraceGenerator(prof, 4+11, 15000) // harness offsets the trace seed by 11
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, gen, 15000); err != nil {
		t.Fatal(err)
	}
	r, _ := ReadTrace(&buf)
	replayed, err := RunTrace(r, RunSpec{Scheme: SchemeNone, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Metrics != replayed.Metrics {
		t.Errorf("replay diverged:\n direct  %+v\n replay  %+v", direct.Metrics, replayed.Metrics)
	}
}

// TestTraceFileReplaysEveryProfile: for every bundled profile, a
// 100k-instruction trace written by WriteTrace and read by ReadTrace
// replays to the very Result its generator computes, and to the
// Metrics Run computes for the same stream.
func TestTraceFileReplaysEveryProfile(t *testing.T) {
	const insts, seed = 100_000, 3
	for _, bench := range Benchmarks() {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			prof, _ := BenchmarkProfile(bench)
			gen := func() TraceSource {
				g, err := NewTraceGenerator(prof, seed+11, insts) // harness offsets the trace seed by 11
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			spec := RunSpec{Scheme: SchemeAdaptive, Seed: seed}
			generated, err := RunTrace(gen(), spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := WriteTrace(&buf, gen(), insts); err != nil {
				t.Fatal(err)
			}
			r, err := ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := RunTrace(r, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(generated, replayed) {
				t.Errorf("replay diverged from the generated run:\n generated %+v\n replayed  %+v", generated.Metrics, replayed.Metrics)
			}
			direct, err := Run(RunSpec{Benchmark: bench, Scheme: SchemeAdaptive, Instructions: insts, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if direct.Metrics != replayed.Metrics {
				t.Errorf("replay diverged from Run:\n direct  %+v\n replay  %+v", direct.Metrics, replayed.Metrics)
			}
		})
	}
}

func TestRunTraceErrors(t *testing.T) {
	// Corrupt machine config propagates.
	bad := DefaultMachine()
	bad.ROBSize = 0
	prof, _ := BenchmarkProfile("gzip")
	gen, _ := NewTraceGenerator(prof, 1, 100)
	if _, err := RunTrace(gen, RunSpec{Machine: &bad}); err == nil {
		t.Error("invalid machine accepted")
	}
	// Unknown scheme propagates out of AttachScheme as ErrInvalidSpec,
	// listing what the registry knows.
	gen2, _ := NewTraceGenerator(prof, 1, 100)
	_, err := RunTrace(gen2, RunSpec{Scheme: Scheme("bogus")})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unknown scheme: got %v, want ErrInvalidSpec", err)
	}
	if err != nil && !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-scheme error does not list registered schemes: %v", err)
	}
	// A trace in the retired fixed-record v1 format (magic "MCDT") is
	// rejected with an error naming the format ReadTrace wants.
	v1 := append([]byte("MCDT\x01\x00\x00\x00"), make([]byte, 64)...)
	if _, err := ReadTrace(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "MCDC") {
		t.Errorf("v1 trace: got %v, want an error naming MCDC", err)
	}
}

func TestRunProfileValidation(t *testing.T) {
	var empty Profile
	if _, err := RunProfile(empty, RunSpec{Instructions: 100}); err == nil {
		t.Error("empty profile accepted")
	}
}

// TestRunRejectsBadSpecs asserts malformed requests surface as errors
// wrapping ErrInvalidSpec at the public boundary instead of panicking
// deep inside the simulator (queue/cache geometry checks, the trace
// generator, scheme dispatch).
func TestRunRejectsBadSpecs(t *testing.T) {
	badCache := DefaultMachine()
	badCache.Cache.L1DLine = 33 // not a power of two

	badQueue := DefaultMachine()
	badQueue.IntQSize = -4

	cases := []struct {
		name string
		spec RunSpec
	}{
		{"unknown benchmark", RunSpec{Benchmark: "nonesuch"}},
		{"unknown scheme", RunSpec{Benchmark: "gzip", Scheme: "warp-speed"}},
		{"bad cache geometry", RunSpec{Benchmark: "gzip", Machine: &badCache}},
		{"bad queue geometry", RunSpec{Benchmark: "gzip", Machine: &badQueue}},
		{"bad fault config", RunSpec{Benchmark: "gzip", Faults: FaultConfig{Sensor: SensorFaults{DropRate: 7}}}},
	}
	for _, tc := range cases {
		tc.spec.Instructions = 20000
		if _, err := Run(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: got %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

// TestRunContextCancellation asserts the public entry point honors a
// cancelled context with a structured ErrCancelled.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, RunSpec{Benchmark: "gzip", Instructions: 20000})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
}

// TestSchemesExport pins the registry listing the public API exposes:
// the paper's schemes in display order, correctly flagged, with a
// description — and every listed name actually runnable.
func TestSchemesExport(t *testing.T) {
	ds := Schemes()
	if len(ds) < 6 {
		t.Fatalf("Schemes() lists %d schemes, want at least 6", len(ds))
	}
	var names []string
	for _, d := range ds {
		names = append(names, string(d.Name))
		if d.Description == "" {
			t.Errorf("scheme %q has no description", d.Name)
		}
	}
	want := []string{"none", "adaptive", "pid", "attack-decay", "global", "pid-adaptive"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("Schemes() order = %v, want prefix %v", names, want)
		}
	}
	if ds[0].Controlled {
		t.Error("the no-DVFS baseline claims to control frequency")
	}
	if ds[0].Extension || ds[1].Extension {
		t.Error("core schemes flagged as extensions")
	}
	if !ds[4].Extension || !ds[5].Extension {
		t.Error("global/pid-adaptive not flagged as extensions")
	}
}

// TestSchemesAllRunnable runs one tiny simulation under every scheme
// Schemes() advertises — including extensions registered after this
// test was written — so the listing can never drift from what Run
// accepts.
func TestSchemesAllRunnable(t *testing.T) {
	for _, d := range Schemes() {
		res, err := Run(RunSpec{Benchmark: "gzip", Scheme: d.Name, Instructions: 15000, Seed: 6})
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		if res.Scheme != string(d.Name) {
			t.Errorf("result labeled %q, want %q", res.Scheme, d.Name)
		}
	}
}

// TestMatrixSchemeSubset drives Options.Schemes through the public
// matrix entry point: the requested subset (plus the implicit
// baseline) is exactly what runs, and an unregistered name fails as
// ErrInvalidSpec naming the registered schemes.
func TestMatrixSchemeSubset(t *testing.T) {
	m, err := NewMatrix(Options{
		Instructions: 15000, Seed: 6,
		Benchmarks: []string{"gzip"},
		Schemes:    []Scheme{"pid-adaptive", SchemeAdaptive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results["gzip"]) != 3 {
		t.Errorf("subset matrix has %d cells, want 3 (baseline + 2)", len(m.Results["gzip"]))
	}
	if m.Results["gzip"][SchemeNone] == nil || m.Results["gzip"][SchemeAdaptive] == nil ||
		m.Results["gzip"][Scheme("pid-adaptive")] == nil {
		t.Errorf("subset matrix missing cells: %v", m.Results["gzip"])
	}
	// Registry order, not request order: adaptive renders before the
	// pid-adaptive extension.
	fig := m.Figure9()
	if len(fig.Lines) == 0 || !strings.Contains(fig.Lines[0], "adaptive") ||
		!strings.Contains(fig.Lines[0], "pid-adaptive") {
		t.Errorf("subset figure header missing schemes: %q", fig.Lines)
	}

	_, err = NewMatrix(Options{
		Instructions: 15000, Seed: 6,
		Benchmarks: []string{"gzip"},
		Schemes:    []Scheme{"warp-speed"},
	})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("unknown scheme subset: got %v, want ErrInvalidSpec", err)
	}
	if !strings.Contains(err.Error(), "registered") {
		t.Errorf("error does not list registered schemes: %v", err)
	}
}

// TestFaultIntensityExport sanity-checks the re-exported fault knob.
func TestFaultIntensityExport(t *testing.T) {
	if cfg := FaultIntensity(0, 1); cfg.Enabled() {
		t.Error("zero intensity is enabled")
	}
	cfg := FaultIntensity(0.5, 1)
	if !cfg.Enabled() {
		t.Error("half intensity is disabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}
