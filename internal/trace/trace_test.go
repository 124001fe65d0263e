package trace

import (
	"testing"
	"testing/quick"

	"mcddvfs/internal/bpred"
	"mcddvfs/internal/isa"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestRegistryShape(t *testing.T) {
	counts := map[string]int{}
	for _, p := range profiles {
		counts[p.Suite]++
	}
	if counts[SuiteMediaBench] != 6 {
		t.Errorf("MediaBench count = %d, want 6", counts[SuiteMediaBench])
	}
	if counts[SuiteSPECint] != 6 {
		t.Errorf("SPECint count = %d, want 6", counts[SuiteSPECint])
	}
	if counts[SuiteSPECfp] != 5 {
		t.Errorf("SPECfp count = %d, want 5", counts[SuiteSPECfp])
	}
	if len(Names()) != 17 {
		t.Errorf("total = %d, want 17", len(Names()))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("epic_decode")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "epic_decode" || p.Suite != SuiteMediaBench {
		t.Errorf("got %s/%s", p.Name, p.Suite)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestGeneratorProducesExactBudget(t *testing.T) {
	for _, name := range []string{"epic_decode", "adpcm_encode", "mcf", "swim"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(p, 1, 10000)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok := g.Next()
			if !ok {
				break
			}
			n++
		}
		if n != 10000 {
			t.Errorf("%s: generated %d instructions, want 10000", name, n)
		}
		if _, ok := g.Next(); ok {
			t.Errorf("%s: Next succeeded after exhaustion", name)
		}
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	p, _ := ByName("gsm_decode")
	gen := func(seed int64) []isa.Inst {
		g, err := NewGenerator(p, seed, 5000)
		if err != nil {
			t.Fatal(err)
		}
		var out []isa.Inst
		for {
			in, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, in)
		}
		return out
	}
	a, b := gen(7), gen(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs across identical seeds", i)
		}
	}
	c := gen(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorMixRoughlyHonored(t *testing.T) {
	p, _ := ByName("swim") // FP-heavy
	g, err := NewGenerator(p, 3, 50000)
	if err != nil {
		t.Fatal(err)
	}
	var counts [isa.NumClasses]int
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		counts[in.Class]++
	}
	fp := counts[isa.FPAdd] + counts[isa.FPMult] + counts[isa.FPDiv] + counts[isa.FPSqrt]
	if frac := float64(fp) / 50000; frac < 0.3 || frac > 0.55 {
		t.Errorf("swim FP fraction = %.3f, want ~0.42", frac)
	}
	loads := float64(counts[isa.Load]) / 50000
	if loads < 0.2 || loads > 0.4 {
		t.Errorf("swim load fraction = %.3f, want ~0.30", loads)
	}
}

func TestFastVaryingProfilesLoop(t *testing.T) {
	for _, name := range []string{"adpcm_encode", "adpcm_decode", "g721_encode", "gsm_decode", "art"} {
		p, _ := ByName(name)
		if !p.Loop {
			t.Errorf("%s should be a looping (fast-varying) profile", name)
		}
		if p.LoopLen > 8000 {
			t.Errorf("%s loop length %d too long to be fast-varying", name, p.LoopLen)
		}
	}
}

func TestEpicDecodeFPBurstStructure(t *testing.T) {
	// The FP activity of epic_decode must be concentrated in two
	// windows (~25-33% and ~76-92% of the run), matching Figure 7.
	p, _ := ByName("epic_decode")
	const total = 100000
	g, err := NewGenerator(p, 11, total)
	if err != nil {
		t.Fatal(err)
	}
	buckets := make([]int, 20) // 5% buckets
	i := 0
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		if in.Class.Domain() == isa.DomainFP {
			buckets[i*20/total]++
		}
		i++
	}
	early := buckets[5] + buckets[6] // 25-35%
	late := buckets[16] + buckets[17]
	quiet := buckets[10] + buckets[11] + buckets[12]
	if early < 100 {
		t.Errorf("no modest FP burst around 28%%: %v", buckets)
	}
	if late < 2*early {
		t.Errorf("late burst (%d) should dwarf early burst (%d)", late, early)
	}
	if quiet > early/2 {
		t.Errorf("FP queue should be quiet mid-run (quiet=%d early=%d)", quiet, early)
	}
}

func TestGeneratorDepDistances(t *testing.T) {
	p, _ := ByName("adpcm_encode")
	g, _ := NewGenerator(p, 5, 20000)
	var sum, n float64
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		if in.Dep1 > 0 {
			sum += float64(in.Dep1)
			n++
		}
		if in.Dep1 > 512 || in.Dep2 > 512 {
			t.Fatalf("dep distance out of range: %d/%d", in.Dep1, in.Dep2)
		}
	}
	mean := sum / n
	if mean < 1.2 || mean > 8 {
		t.Errorf("mean dep distance %.2f outside plausible band", mean)
	}
}

func TestGeneratorAddressesInsideWorkingSet(t *testing.T) {
	p, _ := ByName("mcf")
	g, _ := NewGenerator(p, 9, 20000)
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		if in.Class == isa.Load || in.Class == isa.Store {
			if in.Addr < dataRegionBase || in.Addr >= dataRegionBase+24*MB {
				t.Fatalf("address %#x outside working set", in.Addr)
			}
		}
	}
}

func TestGeneratorPCStaysInCodeRegion(t *testing.T) {
	p, _ := ByName("gcc")
	g, _ := NewGenerator(p, 13, 30000)
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		if in.PC < codeRegionBase {
			t.Fatalf("PC %#x below code region", in.PC)
		}
		if in.PC%4 != 0 {
			t.Fatalf("unaligned PC %#x", in.PC)
		}
	}
}

func TestBranchPredictabilityFollowsHardFraction(t *testing.T) {
	// swim (HardBranchFrac 0.005) must be far more predictable than
	// adpcm_decode's reconstruct-heavy stream (HardBranchFrac 0.22).
	// Predictability is what BranchBias/HardBranchFrac control; raw
	// taken fraction is an emergent property of the loop structure.
	misRate := func(name string) float64 {
		p, _ := ByName(name)
		g, _ := NewGenerator(p, 17, 50000)
		u := bpred.DefaultUnit()
		var branches, mis int
		for {
			in, ok := g.Next()
			if !ok {
				break
			}
			if in.Class != isa.Branch {
				continue
			}
			branches++
			pt, ptgt := u.Predict(in.PC)
			if u.Resolve(in.PC, pt, ptgt, in.Taken, in.Target) {
				mis++
			}
		}
		if branches == 0 {
			t.Fatalf("%s: no branches generated", name)
		}
		return float64(mis) / float64(branches)
	}
	easy := misRate("swim")
	hard := misRate("adpcm_decode")
	if easy > 0.08 {
		t.Errorf("swim mispredict rate %.3f, want < 0.08", easy)
	}
	if hard < easy+0.02 {
		t.Errorf("adpcm_decode (%.3f) should mispredict clearly more than swim (%.3f)", hard, easy)
	}
}

func TestBranchTargetsAreStatic(t *testing.T) {
	p, _ := ByName("gzip")
	g, _ := NewGenerator(p, 23, 40000)
	targets := map[uint64]uint64{}
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		if in.Class != isa.Branch {
			continue
		}
		if prev, seen := targets[in.PC]; seen && prev != in.Target {
			t.Fatalf("branch %#x changed target %#x -> %#x", in.PC, prev, in.Target)
		}
		targets[in.PC] = in.Target
	}
}

func TestScaledLengthsExactAndPositive(t *testing.T) {
	f := func(w1, w2, w3 uint8, totRaw uint16) bool {
		ws := []float64{float64(w1%50) + 1, float64(w2%50) + 1, float64(w3%50) + 1}
		phases := make([]Phase, 3)
		for i := range phases {
			phases[i].Weight = ws[i]
		}
		total := int64(totRaw%5000) + 3
		lens := scaledLengths(phases, total)
		var sum int64
		for _, l := range lens {
			if l < 1 {
				return false
			}
			sum += l
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []Profile{
		{Name: "", Phases: []Phase{{Weight: 1}}},
		{Name: "x"},
		{Name: "x", Phases: []Phase{{Name: "p", Weight: 0}}},
		{Name: "x", Phases: []Phase{{Name: "p", Weight: 1, DepMean: 0.5}}},
		{Name: "x", Loop: true, Phases: []Phase{{Name: "p", Weight: 1, DepMean: 2,
			Mix: intMix(0.2), WorkingSet: KB, CodeSize: KB}}}, // LoopLen missing
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewGeneratorRejectsBadBudget(t *testing.T) {
	p, _ := ByName("gzip")
	if _, err := NewGenerator(p, 1, 0); err == nil {
		t.Error("expected error for zero budget")
	}
}

func TestMixPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mix > 1")
		}
	}()
	mix(0.5, 0.5, 0.5, 0, 0, 0, 0, 0, 0)
}

func TestGeneratorAccessors(t *testing.T) {
	p, _ := ByName("gzip")
	g, _ := NewGenerator(p, 1, 100)
	if g.Name() != "gzip" {
		t.Error("Name broken")
	}
	if g.prof.Phases[g.phaseIdx].Name == "" {
		t.Error("empty phase name")
	}
	g.Next()
	if left := g.total - g.count; left != 99 {
		t.Errorf("%d instructions left, want 99", left)
	}
}

func TestMixValidationErrors(t *testing.T) {
	var m Mix // all zero
	if _, err := m.cumulative(); err == nil {
		t.Error("empty mix accepted")
	}
	m[0] = -1
	if _, err := m.cumulative(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestValidateMoreBranches(t *testing.T) {
	good, _ := ByName("gzip")
	p := good
	p.Phases = append([]Phase(nil), good.Phases...)
	p.Phases[0].Mix = Mix{} // empty mix
	if err := p.Validate(); err == nil {
		t.Error("empty-mix phase accepted")
	}
	p = good
	p.Phases = append([]Phase(nil), good.Phases...)
	p.Phases[0].CodeSize = 0
	if err := p.Validate(); err == nil {
		t.Error("zero code size accepted")
	}
}

// TestSyntheticRegistryIsSideLoaded pins the side-registry contract:
// synthetic diagnostics resolve by name and validate like any profile,
// but never leak into Names — the default experiment matrix
// (and its cached artifacts) must not change when a diagnostic
// workload is added.
func TestSyntheticRegistryIsSideLoaded(t *testing.T) {
	if len(synthetic) == 0 {
		t.Fatal("no synthetic profiles registered")
	}
	for _, p := range synthetic {
		if p.Suite != SuiteSynthetic {
			t.Errorf("synthetic profile %q carries suite %q", p.Name, p.Suite)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("synthetic profile %q invalid: %v", p.Name, err)
		}
		got, err := ByName(p.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", p.Name, err)
		} else if got.Name != p.Name {
			t.Errorf("ByName(%q) returned %q", p.Name, got.Name)
		}
		for _, name := range Names() {
			if name == p.Name {
				t.Errorf("synthetic profile %q leaked into Names()", p.Name)
			}
		}
	}
}
