// Customworkload shows how to define your own synthetic workload
// profile — here, a signal-processing pipeline that alternates a
// floating-point filter burst with an integer bookkeeping stretch —
// and watch the adaptive controller track the FP domain's demand.
package main

import (
	"fmt"
	"log"

	"mcddvfs"
)

func main() {
	prof := mcddvfs.Profile{
		Name:    "sensor_pipeline",
		Suite:   "custom",
		Loop:    true,
		LoopLen: 6000,
		Phases: []mcddvfs.Phase{
			{
				Name:   "fir_filter",
				Weight: 1.0,
				// Heavy FP with streaming loads.
				Mix:            fpHeavyMix(),
				DepMean:        6,
				Dep2Prob:       0.55,
				BranchBias:     0.95,
				HardBranchFrac: 0.02,
				WorkingSet:     512 << 10,
				SeqFrac:        0.9,
				CodeSize:       16 << 10,
			},
			{
				Name:   "bookkeeping",
				Weight: 1.0,
				// Branchy integer code, FP idle.
				Mix:            intHeavyMix(),
				DepMean:        2,
				Dep2Prob:       0.45,
				BranchBias:     0.85,
				HardBranchFrac: 0.15,
				WorkingSet:     128 << 10,
				SeqFrac:        0.6,
				CodeSize:       16 << 10,
			},
		},
	}
	if err := prof.Validate(); err != nil {
		log.Fatal(err)
	}

	base, err := mcddvfs.RunProfile(prof, mcddvfs.RunSpec{Scheme: mcddvfs.SchemeNone, Instructions: 250000})
	if err != nil {
		log.Fatal(err)
	}
	run, err := mcddvfs.RunProfile(prof, mcddvfs.RunSpec{Scheme: mcddvfs.SchemeAdaptive, Instructions: 250000})
	if err != nil {
		log.Fatal(err)
	}

	pid, err := mcddvfs.RunProfile(prof, mcddvfs.RunSpec{Scheme: mcddvfs.SchemePID, Instructions: 250000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("custom workload %q:\n", prof.Name)
	for _, r := range []*mcddvfs.Result{run, pid} {
		c := mcddvfs.CompareRuns(base, r)
		fmt.Printf("  %-12s energy saving %6.2f%%  perf cost %6.2f%%  EDP impr. %6.2f%%\n",
			r.Scheme, 100*c.EnergySaving, 100*c.PerfDegradation, 100*c.EDPImprovement)
	}

	fmt.Println("\nFP-domain frequency trace (the controller chasing the filter bursts):")
	tr := run.FreqTrace["FP"]
	step := len(tr)/24 + 1
	for i := 0; i < len(tr); i += step {
		n := int(tr[i].MHz / 25)
		fmt.Printf("  %9d insts %6.0f MHz ", tr[i].Insts, tr[i].MHz)
		for j := 0; j < n; j++ {
			fmt.Print("#")
		}
		fmt.Println()
	}

	// The classifier agrees this is a fast-varying workload.
	share, fast, err := mcddvfs.ClassifyWorkload(base.QueueSamples["FP"].Floats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspectral classification of the FP queue: share=%.2f fast=%v\n", share, fast)
}

// fpHeavyMix builds a phase mix dominated by FP adds/multiplies.
func fpHeavyMix() mcddvfs.Mix {
	var m mcddvfs.Mix
	m[mcddvfs.ClassFPAdd] = 0.22
	m[mcddvfs.ClassFPMult] = 0.16
	m[mcddvfs.ClassLoad] = 0.28
	m[mcddvfs.ClassStore] = 0.1
	m[mcddvfs.ClassBranch] = 0.08
	m[mcddvfs.ClassIntALU] = 0.16
	return m
}

// intHeavyMix builds a branchy integer mix.
func intHeavyMix() mcddvfs.Mix {
	var m mcddvfs.Mix
	m[mcddvfs.ClassIntALU] = 0.5
	m[mcddvfs.ClassLoad] = 0.2
	m[mcddvfs.ClassStore] = 0.08
	m[mcddvfs.ClassBranch] = 0.2
	m[mcddvfs.ClassIntMult] = 0.02
	return m
}
