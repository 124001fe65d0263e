// Command tracegen generates, saves, inspects, and replays synthetic
// workload traces, and emits whole trace corpora for the experiment
// harness.
//
// Usage:
//
//	tracegen -bench gsm_decode -insts 500000 -o gsm.mcdc   # save a trace
//	tracegen -stats gsm.mcdc                               # inspect it
//	tracegen -replay gsm.mcdc -scheme adaptive             # simulate it
//	tracegen -corpus traces/ -insts 500000 -seed 1         # emit a corpus
//
// Every trace is a chunked v2 file (magic "MCDC": compressed
// fixed-size chunks, per-chunk CRC, seekable index); -stats and
// -replay stream it from disk with memory bounded by the chunk window
// and reject any other format. A corpus directory (see
// `internal/trace`) bundles one chunked trace per benchmark plus a
// checksummed manifest, and is what the experiment harness's -corpus
// flag consumes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "", "benchmark to generate (default epic_decode); for -corpus, a comma-separated subset (empty = all benchmarks)")
		insts  = flag.Int64("insts", 500000, "instructions to generate")
		seed   = flag.Int64("seed", 1, "harness seed (streams are recorded at the harness's derived stream seed)")
		out    = flag.String("o", "", "write one trace to this file")
		chunk  = flag.Int("chunk", 0, "instructions per chunk (0 = default)")
		corpus = flag.String("corpus", "", "emit a trace corpus (one chunked trace per benchmark + manifest) into this directory")
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
	case *corpus != "":
		if err := emitCorpus(*corpus, *bench, *insts, *seed, *chunk); err != nil {
			fail(err)
		}
	case *out != "":
		if err := generate(*bench, *insts, *seed, *out, *chunk); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "tracegen: pass -o, -corpus, -stats or -replay; see -h")
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
	fmt.Printf("wrote %d instructions of %s to %s (chunked v2, %d bytes)\n", insts, bench, out, size)
	return nil
}

// emitCorpus records every selected benchmark at the harness seed into
// dir, writes the manifest, and runs the full integrity verification
// over the result.
func emitCorpus(dir, benchCSV string, insts, seed int64, chunk int) error {
	benches := trace.Names()
	if benchCSV != "" {
		benches = strings.Split(benchCSV, ",")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man := trace.CorpusManifest{FormatVersion: 2, Seed: seed, Instructions: insts}
	for _, bench := range benches {
		prof, err := trace.ByName(strings.TrimSpace(bench))
		if err != nil {
			return err
		}
		m, err := trace.EmitCorpusMember(dir, prof, seed, insts, chunk)
		if err != nil {
			return err
		}
		man.Members = append(man.Members, m)
		fmt.Printf("  %-14s %s  sha256=%s...\n", m.Benchmark, m.File, m.SHA256[:12])
	}
	if err := trace.WriteCorpusManifest(dir, man); err != nil {
		return err
	}
	if err := trace.VerifyCorpus(dir); err != nil {
		return fmt.Errorf("verification after emit: %w", err)
	}
	fmt.Printf("corpus %s: %d members, %d instructions each, seed %d (verified)\n",
		dir, len(man.Members), insts, seed)
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
	fmt.Printf("trace %s: %q, %d instructions, chunked v2 (%d chunks of %d insts, %d bytes on disk)\n",
		path, cf.Name(), cf.Count(), cf.Chunks(), cf.ChunkInstructions(), cf.CompressedBytes())
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
