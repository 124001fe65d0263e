package trace

import (
	"fmt"
	"sort"

	"mcddvfs/internal/isa"
)

// Suite names used by the registry.
const (
	SuiteMediaBench = "MediaBench"
	SuiteSPECint    = "SPECint"
	SuiteSPECfp     = "SPECfp"
	// SuiteSynthetic labels diagnostic workloads that are not part of
	// the paper's suite. They resolve by name (ByName, -only on the
	// CLIs) but are excluded from Names, so the default
	// experiment matrix — and every artifact derived from it — is
	// unchanged by their existence.
	SuiteSynthetic = "synthetic"
)

// KB and MB are working-set size helpers.
const (
	KB uint64 = 1024
	MB uint64 = 1024 * KB
)

// mix builds a Mix from the most common knobs; the remainder after
// loads, stores, branches and the FP/mult shares goes to IntALU.
func mix(load, store, branch, imult, idiv, fadd, fmult, fdiv, fsqrt float64) Mix {
	var m Mix
	m[isa.Load] = load
	m[isa.Store] = store
	m[isa.Branch] = branch
	m[isa.IntMult] = imult
	m[isa.IntDiv] = idiv
	m[isa.FPAdd] = fadd
	m[isa.FPMult] = fmult
	m[isa.FPDiv] = fdiv
	m[isa.FPSqrt] = fsqrt
	rest := 1 - load - store - branch - imult - idiv - fadd - fmult - fdiv - fsqrt
	if rest < 0 {
		panic(fmt.Sprintf("trace: mix overflows 1 by %g", -rest))
	}
	m[isa.IntALU] = rest
	return m
}

// intMix is a typical integer-code mix with the given load share.
func intMix(load float64) Mix { return mix(load, load*0.45, 0.17, 0.015, 0.002, 0, 0, 0, 0) }

// fpMix is a typical floating-point-code mix with the given FP share
// (split between adds and multiplies) and load share.
func fpMix(fp, load float64) Mix {
	return mix(load, load*0.35, 0.08, 0.01, 0, fp*0.55, fp*0.4, fp*0.045, fp*0.005)
}

// profiles is the benchmark registry, mirroring the paper's suite:
// 6 MediaBench + 6 SPECint + 5 SPECfp applications ("roughly the same
// subset of SPECint and SPECfp as those used in [4, 9, 23]"). The
// MediaBench codecs and art are authored as fast-varying workloads
// (phase alternation well inside the 10K-instruction fixed interval);
// the rest vary slowly. Table 2 of the paper is reconstructed from this
// registry plus the spectral classifier.
var profiles = []Profile{
	// ------------------------------------------------------------------
	// MediaBench
	// ------------------------------------------------------------------
	{
		// epic_decode reproduces the Figure-7 narrative: the FP queue is
		// empty except for a modest burst around 28% of the run and a
		// dramatic burst around 82%.
		Name: "epic_decode", Suite: SuiteMediaBench,
		Phases: []Phase{
			{Name: "startup", Weight: 5, Mix: intMix(0.24), DepMean: 3.0, Dep2Prob: 0.4,
				BranchBias: 0.9, HardBranchFrac: 0.08, WorkingSet: 256 * KB, SeqFrac: 0.7, CodeSize: 48 * KB},
			{Name: "huffman", Weight: 20, Mix: intMix(0.22), DepMean: 2.2, Dep2Prob: 0.45,
				BranchBias: 0.88, HardBranchFrac: 0.12, WorkingSet: 512 * KB, SeqFrac: 0.55, CodeSize: 32 * KB},
			{Name: "fp_modest", Weight: 8, Mix: fpMix(0.18, 0.24), DepMean: 4.5, Dep2Prob: 0.5,
				BranchBias: 0.93, HardBranchFrac: 0.05, WorkingSet: 1 * MB, SeqFrac: 0.8, CodeSize: 24 * KB},
			{Name: "drain", Weight: 12, Mix: intMix(0.20), DepMean: 2.5, Dep2Prob: 0.4,
				BranchBias: 0.9, HardBranchFrac: 0.1, WorkingSet: 512 * KB, SeqFrac: 0.6, CodeSize: 32 * KB},
			{Name: "quiet", Weight: 37, Mix: intMix(0.23), DepMean: 2.3, Dep2Prob: 0.4,
				BranchBias: 0.9, HardBranchFrac: 0.1, WorkingSet: 512 * KB, SeqFrac: 0.6, CodeSize: 32 * KB},
			{Name: "fp_burst", Weight: 10, Mix: fpMix(0.38, 0.25), DepMean: 6.0, Dep2Prob: 0.55,
				BranchBias: 0.95, HardBranchFrac: 0.03, WorkingSet: 2 * MB, SeqFrac: 0.85, CodeSize: 24 * KB},
			{Name: "tail", Weight: 8, Mix: intMix(0.22), DepMean: 2.4, Dep2Prob: 0.4,
				BranchBias: 0.9, HardBranchFrac: 0.1, WorkingSet: 512 * KB, SeqFrac: 0.6, CodeSize: 32 * KB},
		},
	},
	{
		Name: "epic_encode", Suite: SuiteMediaBench,
		Phases: []Phase{
			{Name: "read", Weight: 8, Mix: intMix(0.28), DepMean: 2.5, Dep2Prob: 0.4,
				BranchBias: 0.9, HardBranchFrac: 0.08, WorkingSet: 1 * MB, SeqFrac: 0.85, CodeSize: 32 * KB},
			{Name: "pyramid", Weight: 40, Mix: fpMix(0.3, 0.26), DepMean: 5.0, Dep2Prob: 0.5,
				BranchBias: 0.94, HardBranchFrac: 0.04, WorkingSet: 2 * MB, SeqFrac: 0.8, CodeSize: 40 * KB},
			{Name: "quantize", Weight: 30, Mix: mix(0.22, 0.1, 0.12, 0.03, 0.004, 0.06, 0.04, 0.004, 0 /*fsqrt*/), DepMean: 3.0, Dep2Prob: 0.45,
				BranchBias: 0.9, HardBranchFrac: 0.1, WorkingSet: 1 * MB, SeqFrac: 0.7, CodeSize: 32 * KB},
			{Name: "encode", Weight: 22, Mix: intMix(0.2), DepMean: 2.2, Dep2Prob: 0.45,
				BranchBias: 0.87, HardBranchFrac: 0.14, WorkingSet: 512 * KB, SeqFrac: 0.6, CodeSize: 24 * KB},
		},
	},
	{
		// The ADPCM codecs are tiny kernels alternating between a
		// serial predictor-update step and a parallel pack/unpack step
		// every couple of thousand instructions — the canonical
		// fast-workload-variation case the adaptive scheme targets.
		Name: "adpcm_encode", Suite: SuiteMediaBench,
		Loop: true, LoopLen: 7000,
		Phases: []Phase{
			{Name: "predict", Weight: 1.0, Mix: mix(0.18, 0.08, 0.2, 0.03, 0.012, 0, 0, 0, 0), DepMean: 1.35, Dep2Prob: 0.5,
				BranchBias: 0.82, HardBranchFrac: 0.2, WorkingSet: 64 * KB, SeqFrac: 0.9, CodeSize: 8 * KB},
			{Name: "pack", Weight: 1.0, Mix: intMix(0.32), DepMean: 8.0, Dep2Prob: 0.3,
				BranchBias: 0.96, HardBranchFrac: 0.02, WorkingSet: 64 * KB, SeqFrac: 0.95, CodeSize: 8 * KB},
		},
	},
	{
		Name: "adpcm_decode", Suite: SuiteMediaBench,
		Loop: true, LoopLen: 6000,
		Phases: []Phase{
			{Name: "unpack", Weight: 0.8, Mix: intMix(0.34), DepMean: 8.0, Dep2Prob: 0.3,
				BranchBias: 0.96, HardBranchFrac: 0.02, WorkingSet: 64 * KB, SeqFrac: 0.95, CodeSize: 8 * KB},
			{Name: "reconstruct", Weight: 1.2, Mix: mix(0.16, 0.1, 0.19, 0.025, 0.01, 0, 0, 0, 0), DepMean: 1.35, Dep2Prob: 0.5,
				BranchBias: 0.8, HardBranchFrac: 0.22, WorkingSet: 64 * KB, SeqFrac: 0.9, CodeSize: 8 * KB},
		},
	},
	{
		Name: "g721_encode", Suite: SuiteMediaBench,
		Loop: true, LoopLen: 3000,
		Phases: []Phase{
			{Name: "filter", Weight: 1.0, Mix: mix(0.2, 0.08, 0.14, 0.09, 0.01, 0, 0, 0, 0), DepMean: 2.0, Dep2Prob: 0.55,
				BranchBias: 0.88, HardBranchFrac: 0.12, WorkingSet: 96 * KB, SeqFrac: 0.8, CodeSize: 16 * KB},
			{Name: "quantize", Weight: 0.7, Mix: intMix(0.24), DepMean: 5.0, Dep2Prob: 0.4,
				BranchBias: 0.93, HardBranchFrac: 0.06, WorkingSet: 96 * KB, SeqFrac: 0.85, CodeSize: 16 * KB},
			{Name: "update", Weight: 0.5, Mix: mix(0.15, 0.12, 0.22, 0.04, 0.01, 0, 0, 0, 0), DepMean: 1.6, Dep2Prob: 0.5,
				BranchBias: 0.8, HardBranchFrac: 0.2, WorkingSet: 96 * KB, SeqFrac: 0.7, CodeSize: 16 * KB},
		},
	},
	{
		Name: "gsm_decode", Suite: SuiteMediaBench,
		Loop: true, LoopLen: 2600,
		Phases: []Phase{
			{Name: "ltp", Weight: 1.0, Mix: mix(0.22, 0.07, 0.13, 0.11, 0.004, 0, 0, 0, 0), DepMean: 2.1, Dep2Prob: 0.55,
				BranchBias: 0.9, HardBranchFrac: 0.09, WorkingSet: 128 * KB, SeqFrac: 0.85, CodeSize: 16 * KB},
			{Name: "synthesis", Weight: 0.9, Mix: intMix(0.28), DepMean: 5.5, Dep2Prob: 0.35,
				BranchBias: 0.95, HardBranchFrac: 0.03, WorkingSet: 128 * KB, SeqFrac: 0.9, CodeSize: 16 * KB},
			{Name: "postfilter", Weight: 0.6, Mix: mix(0.18, 0.1, 0.2, 0.05, 0.008, 0, 0, 0, 0), DepMean: 1.7, Dep2Prob: 0.5,
				BranchBias: 0.83, HardBranchFrac: 0.18, WorkingSet: 128 * KB, SeqFrac: 0.75, CodeSize: 16 * KB},
		},
	},
	// ------------------------------------------------------------------
	// SPECint2000
	// ------------------------------------------------------------------
	{
		Name: "bzip2", Suite: SuiteSPECint,
		Loop: true, LoopLen: 90000,
		Phases: []Phase{
			{Name: "sort", Weight: 1.2, Mix: intMix(0.27), DepMean: 2.8, Dep2Prob: 0.45,
				BranchBias: 0.85, HardBranchFrac: 0.16, WorkingSet: 4 * MB, SeqFrac: 0.35, CodeSize: 32 * KB},
			{Name: "huffman", Weight: 0.8, Mix: intMix(0.2), DepMean: 2.2, Dep2Prob: 0.45,
				BranchBias: 0.88, HardBranchFrac: 0.12, WorkingSet: 1 * MB, SeqFrac: 0.6, CodeSize: 24 * KB},
		},
	},
	{
		Name: "gcc", Suite: SuiteSPECint,
		Phases: []Phase{
			{Name: "parse", Weight: 25, Mix: intMix(0.25), DepMean: 2.4, Dep2Prob: 0.45,
				BranchBias: 0.84, HardBranchFrac: 0.18, WorkingSet: 2 * MB, SeqFrac: 0.4, CodeSize: 256 * KB},
			{Name: "rtl", Weight: 35, Mix: intMix(0.27), DepMean: 2.6, Dep2Prob: 0.5,
				BranchBias: 0.85, HardBranchFrac: 0.17, WorkingSet: 4 * MB, SeqFrac: 0.35, CodeSize: 384 * KB},
			{Name: "regalloc", Weight: 20, Mix: intMix(0.3), DepMean: 2.2, Dep2Prob: 0.5,
				BranchBias: 0.83, HardBranchFrac: 0.2, WorkingSet: 3 * MB, SeqFrac: 0.3, CodeSize: 256 * KB},
			{Name: "emit", Weight: 20, Mix: intMix(0.24), DepMean: 2.8, Dep2Prob: 0.4,
				BranchBias: 0.88, HardBranchFrac: 0.12, WorkingSet: 1 * MB, SeqFrac: 0.6, CodeSize: 128 * KB},
		},
	},
	{
		Name: "gzip", Suite: SuiteSPECint,
		Loop: true, LoopLen: 60000,
		Phases: []Phase{
			{Name: "deflate", Weight: 1.3, Mix: intMix(0.26), DepMean: 2.5, Dep2Prob: 0.45,
				BranchBias: 0.86, HardBranchFrac: 0.14, WorkingSet: 512 * KB, SeqFrac: 0.55, CodeSize: 24 * KB},
			{Name: "longest_match", Weight: 0.7, Mix: intMix(0.33), DepMean: 2.0, Dep2Prob: 0.5,
				BranchBias: 0.8, HardBranchFrac: 0.22, WorkingSet: 512 * KB, SeqFrac: 0.45, CodeSize: 16 * KB},
		},
	},
	{
		// mcf is the memory-bound pointer chaser: huge working set,
		// random accesses, low ILP — the LS domain dominates.
		Name: "mcf", Suite: SuiteSPECint,
		Phases: []Phase{
			{Name: "simplex", Weight: 70, Mix: mix(0.34, 0.1, 0.16, 0.01, 0.001, 0, 0, 0, 0), DepMean: 1.8, Dep2Prob: 0.5,
				BranchBias: 0.86, HardBranchFrac: 0.14, WorkingSet: 24 * MB, SeqFrac: 0.1, CodeSize: 24 * KB},
			{Name: "pricing", Weight: 30, Mix: mix(0.3, 0.08, 0.18, 0.02, 0.002, 0, 0, 0, 0), DepMean: 2.0, Dep2Prob: 0.45,
				BranchBias: 0.84, HardBranchFrac: 0.16, WorkingSet: 24 * MB, SeqFrac: 0.15, CodeSize: 24 * KB},
		},
	},
	{
		Name: "parser", Suite: SuiteSPECint,
		Loop: true, LoopLen: 40000,
		Phases: []Phase{
			{Name: "tokenize", Weight: 0.6, Mix: intMix(0.24), DepMean: 2.3, Dep2Prob: 0.4,
				BranchBias: 0.86, HardBranchFrac: 0.15, WorkingSet: 512 * KB, SeqFrac: 0.6, CodeSize: 64 * KB},
			{Name: "link", Weight: 1.4, Mix: intMix(0.29), DepMean: 2.0, Dep2Prob: 0.5,
				BranchBias: 0.82, HardBranchFrac: 0.2, WorkingSet: 8 * MB, SeqFrac: 0.2, CodeSize: 96 * KB},
		},
	},
	{
		Name: "vortex", Suite: SuiteSPECint,
		Phases: []Phase{
			{Name: "lookup", Weight: 40, Mix: intMix(0.31), DepMean: 2.4, Dep2Prob: 0.45,
				BranchBias: 0.88, HardBranchFrac: 0.11, WorkingSet: 6 * MB, SeqFrac: 0.25, CodeSize: 256 * KB},
			{Name: "insert", Weight: 35, Mix: intMix(0.28), DepMean: 2.2, Dep2Prob: 0.5,
				BranchBias: 0.87, HardBranchFrac: 0.12, WorkingSet: 6 * MB, SeqFrac: 0.3, CodeSize: 256 * KB},
			{Name: "validate", Weight: 25, Mix: intMix(0.25), DepMean: 2.6, Dep2Prob: 0.4,
				BranchBias: 0.89, HardBranchFrac: 0.1, WorkingSet: 4 * MB, SeqFrac: 0.35, CodeSize: 192 * KB},
		},
	},
	// ------------------------------------------------------------------
	// SPECfp2000
	// ------------------------------------------------------------------
	{
		Name: "applu", Suite: SuiteSPECfp,
		Phases: []Phase{
			{Name: "jacobi", Weight: 45, Mix: fpMix(0.42, 0.28), DepMean: 7.0, Dep2Prob: 0.6,
				BranchBias: 0.97, HardBranchFrac: 0.01, WorkingSet: 12 * MB, SeqFrac: 0.9, Stride: 8, CodeSize: 64 * KB},
			{Name: "blts", Weight: 30, Mix: fpMix(0.38, 0.3), DepMean: 5.0, Dep2Prob: 0.6,
				BranchBias: 0.96, HardBranchFrac: 0.02, WorkingSet: 12 * MB, SeqFrac: 0.85, Stride: 8, CodeSize: 64 * KB},
			{Name: "rhs", Weight: 25, Mix: fpMix(0.4, 0.26), DepMean: 6.5, Dep2Prob: 0.6,
				BranchBias: 0.97, HardBranchFrac: 0.01, WorkingSet: 12 * MB, SeqFrac: 0.9, Stride: 8, CodeSize: 64 * KB},
		},
	},
	{
		// art alternates a short FP-heavy neuron-evaluation scan with a
		// short integer winner-search step; the alternation period is a
		// small fraction of the 10K-instruction fixed interval, putting
		// art in the fast-variation group alongside the codecs.
		Name: "art", Suite: SuiteSPECfp,
		Loop: true, LoopLen: 2400,
		Phases: []Phase{
			{Name: "f1_scan", Weight: 1.1, Mix: fpMix(0.4, 0.3), DepMean: 6.0, Dep2Prob: 0.55,
				BranchBias: 0.96, HardBranchFrac: 0.02, WorkingSet: 3 * MB, SeqFrac: 0.9, CodeSize: 16 * KB},
			{Name: "match", Weight: 0.9, Mix: intMix(0.26), DepMean: 1.8, Dep2Prob: 0.5,
				BranchBias: 0.84, HardBranchFrac: 0.17, WorkingSet: 1 * MB, SeqFrac: 0.5, CodeSize: 16 * KB},
		},
	},
	{
		Name: "equake", Suite: SuiteSPECfp,
		Loop: true, LoopLen: 50000,
		Phases: []Phase{
			{Name: "smvp", Weight: 1.2, Mix: fpMix(0.36, 0.32), DepMean: 4.5, Dep2Prob: 0.6,
				BranchBias: 0.95, HardBranchFrac: 0.03, WorkingSet: 10 * MB, SeqFrac: 0.5, CodeSize: 32 * KB},
			{Name: "time_integ", Weight: 0.8, Mix: fpMix(0.3, 0.26), DepMean: 5.5, Dep2Prob: 0.55,
				BranchBias: 0.96, HardBranchFrac: 0.02, WorkingSet: 6 * MB, SeqFrac: 0.8, CodeSize: 24 * KB},
		},
	},
	{
		Name: "mesa", Suite: SuiteSPECfp,
		Phases: []Phase{
			{Name: "vertex", Weight: 30, Mix: fpMix(0.33, 0.24), DepMean: 5.0, Dep2Prob: 0.55,
				BranchBias: 0.94, HardBranchFrac: 0.04, WorkingSet: 2 * MB, SeqFrac: 0.75, CodeSize: 96 * KB},
			{Name: "raster", Weight: 45, Mix: mix(0.24, 0.12, 0.12, 0.02, 0.002, 0.1, 0.08, 0.006, 0), DepMean: 3.5, Dep2Prob: 0.5,
				BranchBias: 0.9, HardBranchFrac: 0.09, WorkingSet: 4 * MB, SeqFrac: 0.65, CodeSize: 128 * KB},
			{Name: "texture", Weight: 25, Mix: mix(0.3, 0.08, 0.1, 0.02, 0, 0.08, 0.07, 0.004, 0), DepMean: 4.0, Dep2Prob: 0.5,
				BranchBias: 0.92, HardBranchFrac: 0.06, WorkingSet: 8 * MB, SeqFrac: 0.5, CodeSize: 96 * KB},
		},
	},
	{
		Name: "swim", Suite: SuiteSPECfp,
		Phases: []Phase{
			{Name: "calc1", Weight: 35, Mix: fpMix(0.45, 0.3), DepMean: 8.0, Dep2Prob: 0.6,
				BranchBias: 0.98, HardBranchFrac: 0.005, WorkingSet: 16 * MB, SeqFrac: 0.95, Stride: 8, CodeSize: 32 * KB},
			{Name: "calc2", Weight: 35, Mix: fpMix(0.44, 0.31), DepMean: 8.0, Dep2Prob: 0.6,
				BranchBias: 0.98, HardBranchFrac: 0.005, WorkingSet: 16 * MB, SeqFrac: 0.95, Stride: 8, CodeSize: 32 * KB},
			{Name: "calc3", Weight: 30, Mix: fpMix(0.42, 0.3), DepMean: 7.5, Dep2Prob: 0.6,
				BranchBias: 0.98, HardBranchFrac: 0.005, WorkingSet: 16 * MB, SeqFrac: 0.95, Stride: 8, CodeSize: 32 * KB},
		},
	},
}

// synthetic is the diagnostic side registry (SuiteSynthetic): named,
// reproducible workloads for exercising simulator mechanisms rather
// than reproducing paper results.
var synthetic = []Profile{
	{
		// idle_burst stresses the event engine's idle-domain
		// descheduling: three long single-domain bursts, each tens of
		// sampling intervals long, so at any moment two of the three
		// execution domains have empty queues and should be asleep with
		// their edges batch-skipped. The paper's suite never leaves a
		// domain idle this long — codecs alternate within a burst —
		// which is exactly why the engine's skip accounting needs a
		// dedicated workload to be observable at scale.
		Name: "idle_burst", Suite: SuiteSynthetic,
		// LoopLen is instructions per unit of phase weight: each burst
		// runs 30K instructions (three sampling intervals), a 90K cycle.
		Loop: true, LoopLen: 30000,
		Phases: []Phase{
			// Integer spin: no FP at all, almost no memory traffic.
			{Name: "int_spin", Weight: 1.0, Mix: mix(0.02, 0.01, 0.05, 0.01, 0, 0, 0, 0, 0), DepMean: 2.0, Dep2Prob: 0.4,
				BranchBias: 0.95, HardBranchFrac: 0.03, WorkingSet: 32 * KB, SeqFrac: 0.95, CodeSize: 8 * KB},
			// FP spin: the INT and LS domains starve.
			{Name: "fp_spin", Weight: 1.0, Mix: mix(0.05, 0.02, 0.03, 0, 0, 0.5, 0.36, 0.02, 0.005), DepMean: 6.0, Dep2Prob: 0.55,
				BranchBias: 0.97, HardBranchFrac: 0.01, WorkingSet: 64 * KB, SeqFrac: 0.95, CodeSize: 8 * KB},
			// Memory spin: load/store dominated, FP silent.
			{Name: "mem_spin", Weight: 1.0, Mix: mix(0.45, 0.28, 0.05, 0, 0, 0, 0, 0, 0), DepMean: 2.5, Dep2Prob: 0.45,
				BranchBias: 0.94, HardBranchFrac: 0.04, WorkingSet: 8 * MB, SeqFrac: 0.3, CodeSize: 8 * KB},
		},
	},
}

// Names returns the registered benchmark names in registry order.
func Names() []string {
	out := make([]string, len(profiles))
	for i := range profiles {
		out[i] = profiles[i].Name
	}
	return out
}

// ByName looks up one profile, searching the paper suite first and the
// synthetic side registry second.
func ByName(name string) (Profile, error) {
	for i := range profiles {
		if profiles[i].Name == name {
			return profiles[i], nil
		}
	}
	for i := range synthetic {
		if synthetic[i].Name == name {
			return synthetic[i], nil
		}
	}
	// Offer the sorted name list in the error to make CLI typos cheap.
	names := Names()
	for i := range synthetic {
		names = append(names, synthetic[i].Name)
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q (have %v)", name, names)
}
