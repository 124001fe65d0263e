// Command tracegen generates, saves, inspects, and replays synthetic
// workload traces.
//
// Usage:
//
//	tracegen -bench gsm_decode -insts 500000 -o gsm.mcdc   # save a trace
//	tracegen -stats gsm.mcdc                               # inspect it
//	tracegen -replay gsm.mcdc -scheme adaptive             # simulate it
//
// Every trace is a chunked file (magic "MCDC": compressed
// fixed-size chunks, per-chunk CRC, seekable index); -stats and
// -replay stream it from disk with memory bounded by the chunk window
// and reject any other format.
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
		chunk  = flag.Int("chunk", 0, "instructions per chunk (0 = default)")
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
		if err := generate(*bench, *insts, *seed, *out, *chunk); err != nil {
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

func generate(bench string, insts, seed int64, out string, chunk int) error {
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
	size, err := trace.WriteChunked(f, gen, insts, chunk)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d instructions of %s to %s (chunked v%d, %d bytes)\n", insts, bench, out, trace.ChunkedVersion, size)
	return nil
}

func printStats(path string) error {
	cf, err := trace.OpenChunkedFile(path, 0)
	if err != nil {
		return err
	}
	defer cf.Close()
	cur := cf.Replay()
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
	if err := cur.Err(); err != nil {
		return err
	}
	fmt.Printf("trace %s: %q, %d instructions, chunked v%d (%d chunks of %d insts, %d bytes on disk)\n",
		path, cf.Name(), cf.Count(), trace.ChunkedVersion, cf.Chunks(), cf.ChunkInstructions(), cf.CompressedBytes())
	for c := 0; c < isa.NumClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Printf("  %-7s %9d (%5.2f%%)\n", isa.Class(c), counts[c],
			100*float64(counts[c])/float64(cf.Count()))
	}
	if branches > 0 {
		fmt.Printf("  taken branch fraction: %.3f\n", float64(taken)/float64(branches))
	}
	fmt.Printf("  peak resident: %d bytes (window bound %d bytes)\n", cf.PeakResidentBytes(), cf.WindowBytes())
	return nil
}

func replayTrace(path, scheme string) error {
	cf, err := trace.OpenChunkedFile(path, 0)
	if err != nil {
		return err
	}
	defer cf.Close()
	cfg := mcd.DefaultConfig()
	p, err := mcd.New(cfg)
	if err != nil {
		return err
	}
	if err := experiment.AttachScheme(p, experiment.Scheme(scheme), experiment.DefaultOptions()); err != nil {
		return err
	}
	cur := cf.Replay()
	res, err := p.Run(cur)
	if err != nil {
		return err
	}
	if err := cur.Err(); err != nil {
		return err
	}
	fmt.Printf("replayed %q (%d insts): time=%v energy=%.4gJ IPC=%.3f\n",
		res.Benchmark, res.Metrics.Instructions, res.Metrics.ExecTime,
		res.Metrics.EnergyJ, res.IPC)
	fmt.Printf("peak resident: %d bytes (window bound %d bytes)\n", cf.PeakResidentBytes(), cf.WindowBytes())
	return nil
}
