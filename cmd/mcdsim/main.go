// Command mcdsim runs one benchmark on the MCD processor simulator
// under a chosen DVFS scheme and prints a run report.
//
// Usage:
//
//	mcdsim -bench epic_decode -scheme adaptive -insts 500000
//	mcdsim -bench mcf -scheme none -v
//	mcdsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mcddvfs"
	"mcddvfs/internal/cliflags"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/profiling"
	"mcddvfs/internal/queue"
	"mcddvfs/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "epic_decode", "benchmark name (see -list)")
		scheme = flag.String("scheme", "adaptive",
			"DVFS scheme: "+strings.Join(schemeNames(), " | "))
		insts   = flag.Int64("insts", 500000, "dynamic instruction budget")
		seed    = flag.Int64("seed", 1, "simulation seed")
		verbose = flag.Bool("v", false, "print per-domain details and the frequency trace summary")
		list    = flag.Bool("list", false, "list available benchmarks and exit")
		compare = flag.Bool("compare", false, "also run the no-DVFS baseline and print savings")

		faultLvl = flag.Float64("faults", 0, "control-loop fault intensity in [0,1] (0 = no injection)")

		timeout       = cliflags.Timeout(flag.CommandLine, 0)
		cacheDir      = cliflags.CacheDir(flag.CommandLine, "")
		cacheMaxBytes = cliflags.CacheMaxBytes(flag.CommandLine)
		grace         = cliflags.ShutdownGrace(flag.CommandLine, 0)

		cores        = cliflags.Cores(flag.CommandLine)
		powerCap     = cliflags.PowerCap(flag.CommandLine)
		governorName = cliflags.Governor(flag.CommandLine)
		governorGain = cliflags.GovernorGain(flag.CommandLine)

		split     = flag.Bool("split", false, "use the 5-domain (split front end) partition")
		prefetch  = flag.Bool("prefetch", false, "enable the next-line L1D prefetcher")
		noForward = flag.Bool("noforward", false, "disable store-to-load forwarding")
		tokenRing = flag.Bool("tokenring", false, "use token-ring synchronization interfaces")
		transmeta = flag.Bool("transmeta", false, "use Transmeta-style (idle-through) DVFS transitions")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	ctx, stop := cliflags.GraceNotifyContext(context.Background(), *grace)
	defer stop()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mcdsim:", err)
		}
	}()

	if *list {
		names := trace.Names()
		sort.Strings(names)
		for _, n := range names {
			p, _ := trace.ByName(n)
			fmt.Printf("%-14s %s\n", n, p.Suite)
		}
		return
	}

	machine := mcd.DefaultConfig()
	machine.Seed = *seed
	machine.SplitFrontEnd = *split
	machine.Prefetch = *prefetch
	machine.StoreForwarding = !*noForward
	if *tokenRing {
		machine.SyncPolicy = queue.SyncTokenRing
	}
	if *transmeta {
		machine.Transitions = dvfs.TransmetaTransitions()
	}
	machine.Faults = faults.Intensity(*faultLvl, *seed)
	opt := experiment.Options{Instructions: *insts, Seed: *seed, Machine: &machine, Timeout: *timeout, CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes,
		Cores: *cores, PowerCapW: *powerCap, Governor: *governorName, GovernorGain: *governorGain}

	// Every run is a chip; every core runs -bench (a homogeneous chip;
	// the experiments CLI's capsweep/captransient artifacts cover the
	// heterogeneous mixes). One unbudgeted core prints the single-core
	// report.
	cr, err := experiment.RunChipContext(ctx, []string{*bench}, experiment.Scheme(*scheme), opt)
	if err != nil {
		exitErr(err)
	}
	if len(cr.Cores) > 1 || cr.PowerCapW > 0 {
		printChip(cr, *verbose)
		if *compare {
			fmt.Fprintln(os.Stderr, "mcdsim: -compare applies to single-core runs only; ignored")
		}
		return
	}
	res := cr.Cores[0]
	printRun(res, *verbose)

	if *compare && experiment.Scheme(*scheme) != experiment.SchemeNone {
		// The baseline has no control loop to corrupt.
		base := machine
		base.Faults = faults.Config{}
		bopt := opt
		bopt.Machine = &base
		baseRes, err := experiment.RunOneContext(ctx, *bench, experiment.SchemeNone, bopt)
		if err != nil {
			exitErr(err)
		}
		c := experimentCompare(baseRes, res)
		fmt.Printf("\nvs no-DVFS baseline:\n")
		fmt.Printf("  energy saving        %7.2f%%\n", 100*c.save)
		fmt.Printf("  perf degradation     %7.2f%%\n", 100*c.perf)
		fmt.Printf("  EDP improvement      %7.2f%%\n", 100*c.edp)
	}
}

// schemeNames lists every registered scheme for the -scheme usage
// string, so new registry plugins surface in -h with no CLI edits.
func schemeNames() []string {
	var names []string
	for _, d := range mcddvfs.Schemes() {
		names = append(names, string(d.Name))
	}
	return names
}

func exitErr(err error) {
	fmt.Fprintln(os.Stderr, "mcdsim:", err)
	switch {
	case errors.Is(err, experiment.ErrCancelled):
		os.Exit(130)
	case errors.Is(err, experiment.ErrRunTimeout):
		os.Exit(124)
	}
	os.Exit(1)
}

type cmp struct{ save, perf, edp float64 }

func experimentCompare(base, run *mcd.Result) cmp {
	saveE := 1 - run.Metrics.EnergyJ/base.Metrics.EnergyJ
	perf := float64(run.Metrics.ExecTime)/float64(base.Metrics.ExecTime) - 1
	edp := 1 - run.Metrics.EDP()/base.Metrics.EDP()
	return cmp{saveE, perf, edp}
}

// printChip summarizes a chip run: the chip rollup, one line per core,
// and (with -v) the governor's epoch trace tail.
func printChip(cr *mcd.ChipResult, verbose bool) {
	fmt.Printf("cores            %d\n", len(cr.Cores))
	fmt.Printf("instructions     %d\n", cr.Metrics.Instructions)
	fmt.Printf("exec time        %v\n", cr.Metrics.ExecTime)
	fmt.Printf("energy           %.4g J\n", cr.Metrics.EnergyJ)
	fmt.Printf("EDP              %.4g J*s\n", cr.Metrics.EDP())
	fmt.Printf("mean power       %.2f W\n", cr.MeanPowerW())
	if cr.PowerCapW > 0 {
		fmt.Printf("power budget     %.2f W\n", cr.PowerCapW)
	}
	fmt.Println()
	fmt.Printf("%-5s %-14s %10s %12s %10s %10s\n",
		"core", "benchmark", "insts", "time", "energy(J)", "MIPS")
	for i, c := range cr.Cores {
		fmt.Printf("%-5d %-14s %10d %12v %10.4g %10.0f\n",
			i, c.Benchmark, c.Metrics.Instructions, c.Metrics.ExecTime, c.Metrics.EnergyJ, c.Metrics.IPS()/1e6)
	}
	if !verbose || len(cr.EpochTrace) == 0 {
		return
	}
	fmt.Printf("\ngovernor epoch trace (%d epochs, last 10):\n", len(cr.EpochTrace))
	start := len(cr.EpochTrace) - 10
	if start < 0 {
		start = 0
	}
	for _, s := range cr.EpochTrace[start:] {
		caps := make([]string, len(s.CapMHz))
		for i, m := range s.CapMHz {
			caps[i] = fmt.Sprintf("%.0f", m)
		}
		fmt.Printf("  %8.1f us  %7.2f W  caps %s MHz\n",
			s.Time.Seconds()*1e6, s.TotalPowerW(), strings.Join(caps, " "))
	}
}

func printRun(res *mcd.Result, verbose bool) {
	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("scheme           %s\n", res.Scheme)
	fmt.Printf("instructions     %d\n", res.Metrics.Instructions)
	fmt.Printf("exec time        %v\n", res.Metrics.ExecTime)
	fmt.Printf("energy           %.4g J\n", res.Metrics.EnergyJ)
	fmt.Printf("EDP              %.4g J*s\n", res.Metrics.EDP())
	fmt.Printf("IPC              %.3f\n", res.IPC)
	fmt.Printf("branch mispred   %.2f%%\n", 100*res.BranchMispredictRate)
	fmt.Printf("L1D/L2/L1I miss  %.2f%% / %.2f%% / %.2f%%\n",
		100*res.L1DMissRate, 100*res.L2MissRate, 100*res.L1IMissRate)

	if !verbose {
		return
	}
	fmt.Println()
	fmt.Printf("%-9s %10s %12s %10s %8s %10s %8s\n",
		"domain", "energy(J)", "mean f(MHz)", "cycles", "act", "occupancy", "retgts")
	for _, name := range []string{mcd.NameFrontEnd, mcd.NameInt, mcd.NameFP, mcd.NameLS} {
		d := res.Domains[name]
		fmt.Printf("%-9s %10.4g %12.1f %10d %8.3f %10.2f %8d\n",
			name, d.EnergyJ, d.MeanFreqMHz, d.Cycles, d.MeanActivity, d.MeanOccupancy, d.Transitions)
	}
	for _, name := range []string{mcd.NameInt, mcd.NameFP, mcd.NameLS} {
		tr := res.FreqTrace[name]
		if len(tr) == 0 {
			continue
		}
		fmt.Printf("\n%s frequency trace (%d points):\n", name, len(tr))
		step := len(tr)/20 + 1
		for i := 0; i < len(tr); i += step {
			rel := tr[i].MHz / 1000
			fmt.Printf("  %10d insts  %6.0f MHz  %s\n", tr[i].Insts, tr[i].MHz, strings.Repeat("#", int(rel*40)))
		}
	}
}
