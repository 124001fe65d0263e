package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// referenceKey is the cache key spelled out as the one struct it
// hashes: one json.Marshal of the whole key, then SHA-256. cacheKey
// streams the same bytes in parts; TestCacheKeyMatchesReference holds
// the two equal.
func referenceKey(t *testing.T, profs []trace.Profile, scheme Scheme, opt Options) [sha256.Size]byte {
	t.Helper()
	mutated := make([]control.Config, isa.NumExecDomains)
	for d := range mutated {
		cfg := control.DefaultConfig(isa.ExecDomain(d))
		if opt.MutateAdaptive != nil {
			opt.MutateAdaptive(&cfg)
		}
		mutated[d] = cfg
	}
	blob, err := json.Marshal(struct {
		Format           int
		Kind             string
		Profiles         []trace.Profile
		Scheme           Scheme
		Instructions     int64
		Seed             int64
		PIDIntervalTicks int
		Machine          mcd.Config
		Adaptive         []control.Config
		Cores            int
		PowerCapW        float64
		Governor         string
		GovernorGain     float64
	}{keyFormat, "chip", profs, scheme, opt.Instructions, opt.Seed, opt.PIDIntervalTicks, opt.machine(), mutated,
		opt.chipCores(), opt.PowerCapW, opt.governorName(), opt.GovernorGain})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(blob)
}

// randomKeyOptions draws Options covering every input of the key:
// one core or many, faults on or off, a custom Machine, a
// MutateAdaptive, and the governor, gain and cap.
func randomKeyOptions(r *rand.Rand) Options {
	opt := Options{
		Instructions:     1 + r.Int63n(1_000_000),
		Seed:             r.Int63n(1000) - 500,
		PIDIntervalTicks: r.Intn(3) * 1250,
	}
	if r.Intn(2) == 0 {
		cfg := mcd.DefaultConfig()
		cfg.Seed = r.Int63()
		cfg.JitterPS = r.Float64() * 200
		cfg.IntQSize = 8 + r.Intn(32)
		opt.Machine = &cfg
	}
	if r.Intn(2) == 0 {
		opt.Faults = faults.Config{
			Seed:     r.Int63(),
			Sensor:   faults.SensorConfig{NoiseStdDev: r.Float64(), DropRate: r.Float64() / 2},
			Actuator: faults.ActuatorConfig{DelayTicks: r.Intn(4), MissRate: r.Float64() / 4},
		}
	}
	if r.Intn(2) == 0 {
		scale := 1 + r.Float64()
		qref := r.Intn(4)
		opt.MutateAdaptive = func(c *control.Config) {
			c.TM0 *= scale
			c.QRef += qref
		}
	}
	switch r.Intn(4) {
	case 0: // single core
	case 1:
		opt.Cores = 2 + r.Intn(7)
	case 2:
		opt.Cores = r.Intn(5)
		opt.PowerCapW = 5 + r.Float64()*40
		opt.GovernorGain = float64(r.Intn(3)) * r.Float64() * 50
	case 3:
		opt.Cores = r.Intn(5)
		opt.Governor = []string{"none", "integral-gain"}[r.Intn(2)]
		opt.PowerCapW = float64(r.Intn(2)) * 30
		opt.GovernorGain = r.Float64() * 20
	}
	return opt.withDefaults()
}

// TestCacheKeyMatchesReference is the property behind streaming the
// key: over randomized Options, plain single cores and chips alike,
// the streamed key —
// derived from a shared runSpec, as a matrix derives its cells' keys,
// and from a runSpec of the bare Options with no harness — equals the
// SHA-256 of the reference struct's
// JSON. The golden tests pin two points of the same function.
func TestCacheKeyMatchesReference(t *testing.T) {
	t.Parallel()
	names := trace.Names()
	schemes := append([]Scheme{SchemeNone, SchemeGlobal, `odd "name" <&>`}, ControlledSchemes()...)
	r := rand.New(rand.NewSource(20))
	plain, multi := 0, 0
	for i := 0; i < 300; i++ {
		opt := randomKeyOptions(r)
		if opt.chipCores() > 1 {
			multi++
		} else if opt.PowerCapW == 0 && opt.governorName() == governor.DefaultName {
			plain++
		}
		spec := newRunSpec(opt)
		for cell := 0; cell < 3; cell++ {
			profs := make([]trace.Profile, opt.chipCores())
			for c := range profs {
				prof, err := trace.ByName(names[r.Intn(len(names))])
				if err != nil {
					t.Fatal(err)
				}
				profs[c] = prof
			}
			sch := schemes[r.Intn(len(schemes))]
			want := referenceKey(t, profs, sch, opt)
			got, err := cacheKey(profs, sch, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("case %d cell %d (%s, %d cores): streamed key %x, reference %x", i, cell, sch, opt.chipCores(), got, want)
			}
			if got, err = cacheKey(profs, sch, &runSpec{opt: opt}); err != nil || got != want {
				t.Fatalf("case %d cell %d: key from a harnessless runSpec %x (%v), reference %x", i, cell, got, err, want)
			}
		}
	}
	if plain < 50 || multi < 50 {
		t.Fatalf("%d plain one-core and %d multi-core cases of 300; the draw no longer covers both", plain, multi)
	}
}

// TestMatrixHotPathContracts pins how the matrix serves memo hits on
// its own goroutine: a key that cannot be derived fails every cell
// inside the pool instead of escaping, a cancelled sweep serves
// nothing, and every hit counts exactly as a pool hit does.
func TestMatrixHotPathContracts(t *testing.T) {
	t.Parallel()
	t.Run("key-panic-fails-every-cell", func(t *testing.T) {
		opt := smallOpt()
		opt.MutateAdaptive = func(*control.Config) { panic("rigged controller") }
		m, err := RunMatrixContext(context.Background(), opt)
		if err == nil {
			t.Fatal("a matrix whose every key panics reported success")
		}
		cells := len(opt.Benchmarks) * (len(ControlledSchemes()) + 1)
		if len(m.Failures) != cells {
			t.Fatalf("%d failures, want every one of %d cells: %+v", len(m.Failures), cells, m.Failures)
		}
		for _, f := range m.Failures {
			if !errors.Is(f.Err, ErrRunPanicked) {
				t.Errorf("%s/%s: %v, want ErrRunPanicked", f.Bench, f.Scheme, f.Err)
			}
		}
		if _, err := RunOneContext(context.Background(), "gzip", SchemeNone, opt); !errors.Is(err, ErrRunPanicked) {
			t.Errorf("RunOneContext: %v, want ErrRunPanicked", err)
		}
	})

	opt := smallOpt()
	cells := uint64(len(opt.Benchmarks) * (len(ControlledSchemes()) + 1))
	if _, err := RunMatrixContext(context.Background(), opt); err != nil {
		t.Fatal(err)
	}

	t.Run("cancelled-warm-matrix", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		hits, misses := opt.Harness.cacheStats()
		m, err := RunMatrixContext(ctx, opt)
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if uint64(len(m.Failures)) != cells {
			t.Fatalf("%d failures, want all %d cells cancelled", len(m.Failures), cells)
		}
		for _, f := range m.Failures {
			if !errors.Is(f.Err, ErrCancelled) {
				t.Errorf("%s/%s: %v, want ErrCancelled", f.Bench, f.Scheme, f.Err)
			}
		}
		if h, mi := opt.Harness.cacheStats(); h != hits || mi != misses {
			t.Errorf("cancelled sweep moved CacheStats from %d/%d to %d/%d", hits, misses, h, mi)
		}
	})

	t.Run("warm-hits-count-once", func(t *testing.T) {
		hits, misses := opt.Harness.cacheStats()
		var rows []string
		wopt := opt
		wopt.RowFlush = func(ev RowEvent) {
			if !ev.Complete {
				t.Errorf("row %s delivered incomplete", ev.Bench)
			}
			rows = append(rows, ev.Bench)
		}
		m, err := RunMatrixContext(context.Background(), wopt)
		if err != nil || len(m.Failures) != 0 {
			t.Fatalf("warm matrix: %v %+v", err, m.Failures)
		}
		h, mi := opt.Harness.cacheStats()
		if h-hits != cells || mi != misses {
			t.Errorf("warm matrix added %d hits / %d misses, want %d / 0", h-hits, mi-misses, cells)
		}
		if len(rows) != len(opt.Benchmarks) || rows[0] != opt.Benchmarks[0] || rows[1] != opt.Benchmarks[1] {
			t.Errorf("rows delivered %v, want %v once each, in order", rows, opt.Benchmarks)
		}
	})
}

// TestMatrixKeysMatchReference asserts a matrix keys each cell, with
// its benchmark's profile JSON encoded once for all its schemes,
// exactly as the reference key does, on one core and on two: every cell's
// outcome is memoized under the reference key of its benchmark and
// scheme.
func TestMatrixKeysMatchReference(t *testing.T) {
	t.Parallel()
	for _, cores := range []int{1, 2} {
		opt := smallOpt()
		opt.Instructions, opt.Cores = 5000, cores
		m, err := RunMatrixContext(context.Background(), opt)
		if err != nil || len(m.Failures) != 0 {
			t.Fatalf("%d cores: %v %+v", cores, err, m.Failures)
		}
		opt = opt.withDefaults()
		for _, bench := range opt.Benchmarks {
			prof, err := trace.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, sch := range append([]Scheme{SchemeNone}, m.Schemes...) {
				k := referenceKey(t, chipProfiles(prof, opt), sch, opt)
				opt.Harness.mu.Lock()
				_, ok := opt.Harness.memo[k]
				opt.Harness.mu.Unlock()
				if !ok {
					t.Errorf("%d cores: %s/%s is not memoized under its reference key", cores, bench, sch)
				}
			}
		}
	}
}
