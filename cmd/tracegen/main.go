// Command tracegen generates, saves, inspects, and replays synthetic
// workload traces.
//
// Usage:
//
//	tracegen -bench gsm_decode -insts 500000 -o gsm.mcdc   # save a trace
//	tracegen -stats gsm.mcdc                               # inspect it
//	tracegen -replay gsm.mcdc -scheme adaptive             # simulate it
//
// Every trace is one file in the trace format (magic "MCDC" version 4:
// a header with the instruction count and a CRC, then one flate
// stream of the recording). -stats and -replay read the whole file
// into memory, check every instruction, and reject any other format.
package main

import (
	"flag"
	"fmt"
	"os"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "", "benchmark to generate (default epic_decode)")
		insts  = flag.Int64("insts", 500000, "instructions to generate")
		seed   = flag.Int64("seed", 1, "generator seed of the written stream")
		out    = flag.String("o", "", "write one trace to this file")
		stats  = flag.String("stats", "", "print statistics for a trace file and exit")
		replay = flag.String("replay", "", "simulate a saved trace file")
		scheme = flag.String("scheme", "adaptive", "DVFS scheme for -replay")
	)
	flag.Parse()

	switch {
	case *stats != "":
		if err := printStats(*stats); err != nil {
			fail(err)
		}
	case *replay != "":
		if err := replayTrace(*replay, *scheme); err != nil {
			fail(err)
		}
	case *out != "":
		if err := generate(*bench, *insts, *seed, *out); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "tracegen: pass -o, -stats or -replay; see -h")
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func generate(bench string, insts, seed int64, out string) error {
	if bench == "" {
		bench = "epic_decode"
	}
	prof, err := trace.ByName(bench)
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(prof, seed, insts)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := trace.Write(f, gen, insts)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d instructions of %s to %s (trace v%d, %d bytes)\n", insts, bench, out, trace.FileVersion, size)
	return nil
}

// readFile reads a whole trace file into a recording and reports the
// file's size.
func readFile(path string) (*trace.Recorded, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	rec, err := trace.ReadRecorded(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return rec, st.Size(), nil
}

func printStats(path string) error {
	rec, size, err := readFile(path)
	if err != nil {
		return err
	}
	cur := rec.Replay()
	var counts [isa.NumClasses]int64
	var branches, taken int64
	for {
		in, ok := cur.Next()
		if !ok {
			break
		}
		counts[in.Class]++
		if in.Class == isa.Branch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Printf("trace %s: %q, %d instructions, trace v%d (%d bytes on disk, %d decoded)\n",
		path, cur.Name(), rec.Len(), trace.FileVersion, size, rec.Bytes())
	for c := 0; c < isa.NumClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Printf("  %-7s %9d (%5.2f%%)\n", isa.Class(c), counts[c],
			100*float64(counts[c])/float64(rec.Len()))
	}
	if branches > 0 {
		fmt.Printf("  taken branch fraction: %.3f\n", float64(taken)/float64(branches))
	}
	return nil
}

func replayTrace(path, scheme string) error {
	rec, _, err := readFile(path)
	if err != nil {
		return err
	}
	cfg := mcd.DefaultConfig()
	p, err := mcd.New(cfg)
	if err != nil {
		return err
	}
	if err := experiment.AttachScheme(p, experiment.Scheme(scheme), experiment.DefaultOptions()); err != nil {
		return err
	}
	res, err := p.Run(rec.Replay())
	if err != nil {
		return err
	}
	fmt.Printf("replayed %q (%d insts): time=%v energy=%.4gJ IPC=%.3f\n",
		res.Benchmark, res.Metrics.Instructions, res.Metrics.ExecTime,
		res.Metrics.EnergyJ, res.IPC)
	return nil
}
