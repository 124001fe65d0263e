// Command spectrum runs the Section-5.2 spectral analysis on a
// benchmark's queue-occupancy series: multitaper variance spectrum by
// wavelength and the fast-workload-variation classification.
//
// Usage:
//
//	spectrum -bench adpcm_encode -domain INT
//	spectrum -all
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/spectrum"
	"mcddvfs/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "epic_decode", "benchmark name")
		domain = flag.String("domain", "INT", "queue to analyze: INT | FP | LS")
		insts  = flag.Int64("insts", 500000, "instructions to simulate")
		seed   = flag.Int64("seed", 1, "simulation seed")
		all    = flag.Bool("all", false, "classify every benchmark instead")
	)
	flag.Parse()
	opt := experiment.Options{Instructions: *insts, Seed: *seed}

	if *all {
		classes, err := experiment.ClassifyBenchmarks(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spectrum:", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %-11s %12s %s\n", "benchmark", "suite", "fast share", "class")
		for _, c := range classes {
			class := "slow"
			if c.Fast {
				class = "FAST"
			}
			fmt.Printf("%-14s %-11s %12.3f %s\n", c.Name, c.Suite, c.ShortShare, class)
		}
		return
	}

	if _, err := trace.ByName(*bench); err != nil {
		fmt.Fprintln(os.Stderr, "spectrum:", err)
		os.Exit(1)
	}
	res, err := experiment.RunOneContext(context.Background(), *bench, experiment.SchemeNone, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spectrum:", err)
		os.Exit(1)
	}
	name := map[string]string{"INT": mcd.NameInt, "FP": mcd.NameFP, "LS": mcd.NameLS}[*domain]
	if name == "" {
		fmt.Fprintf(os.Stderr, "spectrum: unknown domain %q\n", *domain)
		os.Exit(2)
	}
	samples := res.QueueSamples[name].Floats()
	sp, err := spectrum.Multitaper(samples, 5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spectrum:", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s queue: %d samples at 250 MHz\n", *bench, *domain, len(samples))
	fmt.Printf("%22s %14s\n", "wavelength (samples)", "variance")
	edges := []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536}
	for i := 0; i+1 < len(edges); i++ {
		v := sp.BandVariance(edges[i], edges[i+1])
		fmt.Printf("%9.0f - %-10.0f %14.5g\n", edges[i], edges[i+1], v)
	}
	share := sp.FastShare(spectrum.DefaultNoiseSamples, spectrum.DefaultIntervalSamples)
	fmt.Printf("workload variance above noise floor: %.4g entries^2\n",
		sp.BandVariance(spectrum.DefaultNoiseSamples, math.Inf(1)))
	fmt.Printf("fast-variation share: %.3f (threshold %.2f) -> ", share, spectrum.DefaultFastShareThreshold)
	if share > spectrum.DefaultFastShareThreshold {
		fmt.Println("FAST")
	} else {
		fmt.Println("slow")
	}
}
