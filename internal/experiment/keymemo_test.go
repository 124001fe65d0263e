package experiment

import (
	"math"
	"sync"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// keyMemoOptions are plain options in pairs that differ in one
// key-bearing field, so a key memo that leaves a field out of its
// projection serves one of each pair the other's key tail. The key
// writes the cap and gain as given, −0 included.
func keyMemoOptions() []Options {
	negZero := math.Copysign(0, -1)
	base := Options{Instructions: 5000, Seed: 1}
	vary := []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Instructions = 7000 },
		func(o *Options) { o.Seed = 2 },
		func(o *Options) { o.PIDIntervalTicks = 1250 },
		func(o *Options) { o.Cores = 2 },
		func(o *Options) { o.Cores = 4 },
		func(o *Options) { o.Governor = "none" },
		func(o *Options) { o.PowerCapW, o.Governor = 30, "static-split" },
		func(o *Options) { o.PowerCapW = 30 },
		func(o *Options) { o.PowerCapW, o.GovernorGain = 30, 5 },
		func(o *Options) { o.Cores, o.GovernorGain = 2, 5 },
		func(o *Options) { o.Cores, o.PowerCapW = 2, negZero },
		func(o *Options) { o.Cores, o.GovernorGain = 2, negZero },
		func(o *Options) { o.GovernorGain = 5 },
		func(o *Options) { o.PowerCapW = negZero },
	}
	out := make([]Options, len(vary))
	for i, v := range vary {
		out[i] = base
		v(&out[i])
	}
	return out
}

// keyOn derives the adaptive gzip cell key of opt on harness h.
func keyOn(t *testing.T, h *Harness, opt Options) [32]byte {
	t.Helper()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt.Harness = h
	s := newRunSpec(opt)
	k, err := cacheKey(chipProfiles(prof, s.opt), SchemeAdaptive, s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// memoizedKeys is how many key tails h holds.
func memoizedKeys(h *Harness) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.keys)
}

// TestKeyMemoMatchesFreshHarness: cell keys and render keys derived
// through a warm harness's key memo equal those an empty harness
// encodes afresh, for options varying every field the memo keys on.
func TestKeyMemoMatchesFreshHarness(t *testing.T) {
	t.Parallel()
	opts := keyMemoOptions()
	warm := NewHarness()
	for pass := 0; pass < 2; pass++ {
		for i, opt := range opts {
			if got, want := keyOn(t, warm, opt), keyOn(t, NewHarness(), opt); got != want {
				t.Errorf("pass %d, options %d: warm cell key %x, fresh %x", pass, i, got, want)
			}
			opt.Harness = warm
			got, err := RenderKey("fig9", FormatText, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Harness = NewHarness()
			want, err := RenderKey("fig9", FormatText, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("pass %d, options %d: warm render key %s, fresh %s", pass, i, got, want)
			}
		}
	}
	// Each option set is a projection of its own.
	if n, want := memoizedKeys(warm), len(opts); n != want {
		t.Errorf("warm harness memoizes %d key tails, want %d", n, want)
	}
}

// TestKeyMemoBypass: a spec whose key the projection cannot stand for
// — a Machine, a MutateAdaptive, enabled faults — neither reads nor
// fills the memo, and a key that fails to encode is not memoized.
func TestKeyMemoBypass(t *testing.T) {
	t.Parallel()
	base := Options{Instructions: 5000, Seed: 1}
	machine := mcd.DefaultConfig()
	machine.Seed = base.Seed
	machine.SampleLimit = 1 << 17
	machine.IntQSize++
	bypass := map[string]func(*Options){
		"Machine":        func(o *Options) { o.Machine = &machine },
		"MutateAdaptive": func(o *Options) { o.MutateAdaptive = func(c *control.Config) { c.QRef++ } },
		"Faults":         func(o *Options) { o.Faults = faults.Config{Sensor: faults.SensorConfig{NoiseStdDev: 0.5}} },
	}
	for name, set := range bypass {
		opt := base
		set(&opt)
		if !opt.Faults.Enabled() && name == "Faults" {
			t.Fatal("the faults case does not enable faults")
		}
		want := keyOn(t, NewHarness(), opt)
		// The plain base memoized first must not be served to opt, and
		// opt's key must not be served to the base after it.
		warm := NewHarness()
		plain := keyOn(t, warm, base)
		if plain == want {
			t.Fatalf("%s: the case keys as the plain base", name)
		}
		if got := keyOn(t, warm, opt); got != want {
			t.Errorf("%s: key through a warm harness %x, fresh %x", name, got, want)
		}
		cold := NewHarness()
		keyOn(t, cold, opt)
		if got := keyOn(t, cold, base); got != plain {
			t.Errorf("%s: the plain base after it keys %x, want %x", name, got, plain)
		}
		if n := memoizedKeys(warm) + memoizedKeys(cold); n != 2 {
			t.Errorf("%s: %d key tails memoized, want the base's 2", name, n)
		}
	}

	// A NaN budget fails to encode; the failure is not memoized.
	h := NewHarness()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Instructions: 5000, Seed: 1, Cores: 2, PowerCapW: math.NaN(), Harness: h}
	for i := 0; i < 2; i++ {
		s := newRunSpec(bad)
		if _, err := cacheKey(chipProfiles(prof, s.opt), SchemeNone, s); err == nil {
			t.Fatal("NaN power cap encoded a key")
		}
	}
	if n := memoizedKeys(h); n != 0 {
		t.Errorf("a failed key left %d key tails memoized", n)
	}
}

// TestKeyMemoResetAndFork: reset empties the key memo, a Fork starts
// with none, and keys derived after either are unchanged.
func TestKeyMemoResetAndFork(t *testing.T) {
	t.Parallel()
	opt := Options{Instructions: 5000, Seed: 1}
	h := NewHarness()
	want := keyOn(t, h, opt)
	if memoizedKeys(h) != 1 {
		t.Fatalf("%d key tails memoized, want 1", memoizedKeys(h))
	}
	f := h.Fork()
	if n := memoizedKeys(f); n != 0 {
		t.Errorf("a fork starts with %d key tails, want 0", n)
	}
	h.reset()
	if n := memoizedKeys(h); n != 0 {
		t.Errorf("reset left %d key tails", n)
	}
	for name, hh := range map[string]*Harness{"reset": h, "fork": f} {
		if got := keyOn(t, hh, opt); got != want {
			t.Errorf("after %s: key %x, want %x", name, got, want)
		}
	}
}

// TestKeyMemoConcurrent derives keys for every option set from several
// goroutines on one harness while it resets, as mcdserve's handlers
// do; each key must equal the one an empty harness encodes.
func TestKeyMemoConcurrent(t *testing.T) {
	t.Parallel()
	opts := keyMemoOptions()
	want := make([][32]byte, len(opts))
	for i, opt := range opts {
		want[i] = keyOn(t, NewHarness(), opt)
	}
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if g == 0 && round%5 == 0 {
					h.reset()
				}
				for i, opt := range opts {
					opt.Harness = h
					s := newRunSpec(opt)
					k, err := cacheKey(chipProfiles(prof, s.opt), SchemeAdaptive, s)
					if err != nil || k != want[i] {
						t.Errorf("goroutine %d, options %d: key %x (%v), want %x", g, i, k, err, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyMemoCarriesMachineVerdict: a spec that finds its key tail
// in the memo takes the machine check's verdict from it, and that
// verdict is the one a fresh spec computes. A plain spec's machine is
// the default configuration at Seed, and Validate reads no Seed, so
// the verdict is the same at every seed.
func TestKeyMemoCarriesMachineVerdict(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64} {
		cfg := Options{Seed: seed}.machine()
		if err := cfg.Validate(); err != nil {
			t.Errorf("seed %d: the default machine fails validation: %v", seed, err)
		}
	}
	h := NewHarness()
	for i, opt := range keyMemoOptions() {
		opt.Harness = h
		fresh := newRunSpec(opt)
		if fresh.memoHit {
			t.Fatalf("options %d: a first spec hit the key memo", i)
		}
		if _, err := fresh.keyParts(); err != nil {
			t.Fatal(err)
		}
		warm := newRunSpec(opt)
		if !warm.memoHit {
			t.Fatalf("options %d: the second spec missed the key memo", i)
		}
		if warm.machineErr != fresh.machineErr {
			t.Errorf("options %d: memoized machine verdict %v, fresh %v", i, warm.machineErr, fresh.machineErr)
		}
	}
}
