// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all                 # everything (the full matrix takes ~1-2 min)
//	experiments -only table1,fig7   # selected artifacts
//	experiments -all -out results/  # also write one .txt per artifact
//	experiments -faults 0,0.5,1     # robustness sweep: EDP vs fault intensity
//	experiments -only fig9 -schemes adaptive,pid-adaptive  # subset / extension columns
//	experiments -only fig9,fig10 -corpus traces/  # stream matrix traces from a corpus
//
// Artifact IDs, in the order a run renders them: table1 table4 remarks
// table2 fig7 fig8 fig9 fig10 fig11 summary table3 ablation transitions
// global qref interfaces partitions delays seeds robustness capsweep
// captransient. Every artifact renders through the harness catalog
// (experiment.RenderArtifactContext), the same path mcdserve serves.
// The robustness sweep and the chip artifacts (capsweep, captransient)
// only run when asked for explicitly, never under -all; -faults selects
// the robustness sweep and sets its intensities.
//
// Simulation results persist across runs in results/.cache by default
// (-cache-dir); delete that directory or pass -cache-dir "" to force a
// cold run. Artifacts are byte-identical either way.
//
// With -out, the fig9/fig10 .txt files fill while the first matrix
// runs: after each benchmark row finishes, each file holds the figure
// rendered over the rows so far, AVERAGE included, so the file after
// the last row is the figure's own render. SIGINT/SIGTERM cancel
// in-flight simulations; artifacts already produced are flushed before
// exit, and the fig9/fig10 files of an interrupted matrix hold the
// figure over every row it delivered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcddvfs"
	"mcddvfs/internal/cliflags"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/profiling"
)

// controlledSchemeNames lists the default sweep columns for -h, read
// from the scheme registry so new plugins surface with no CLI edits.
func controlledSchemeNames() []string {
	var names []string
	for _, d := range mcddvfs.Schemes() {
		if d.Controlled && !d.Extension {
			names = append(names, string(d.Name))
		}
	}
	return names
}

// explicitOnly lists the artifacts -all leaves out: they render only
// when -only names them (or, for robustness, -faults asks for it).
var explicitOnly = map[string]bool{"robustness": true, "capsweep": true, "captransient": true}

// streamed maps the figures whose .txt files fill row by row while the
// matrix runs to their renders.
var streamed = map[string]func(*experiment.Matrix) experiment.Report{
	"fig9":  (*experiment.Matrix).Figure9,
	"fig10": (*experiment.Matrix).Figure10,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, renders the selected artifacts
// to stdout (and -out) and returns the exit status — 0 on success, 1
// on a failed artifact, 2 on a usage error, 130 when interrupted.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all    = fs.Bool("all", false, "run every experiment")
		only   = fs.String("only", "", "comma-separated artifact IDs to run")
		insts  = fs.Int64("insts", 500000, "instructions per simulation")
		seed   = fs.Int64("seed", 1, "simulation seed")
		out    = fs.String("out", "", "directory to also write per-artifact .txt files")
		asJSON = fs.Bool("json", false, "with -out, also write per-artifact .json files")
		asSVG  = fs.Bool("svg", false, "with -out, also write .svg files for the artifacts that are figures")

		corpusDir = fs.String("corpus", "", "resolve matrix benchmarks from this trace corpus directory (cmd/tracegen -corpus): streams traces from disk with bounded memory; the corpus must match -seed and -insts")
		benchCSV  = fs.String("bench", "", `restrict every artifact to this comma-separated subset of benchmarks ("" = each artifact's default; with -corpus, the corpus's members in manifest order)`)

		faultsSpec = fs.String("faults", "", `run the robustness artifact at these comma-separated fault intensities in [0,1] (e.g. "0,0.5,1"; "default" = 0,0.25,0.5,0.75,1)`)
		schemesCSV = fs.String("schemes", "",
			`restrict the benchmark × scheme sweeps to this comma-separated subset of registered schemes (e.g. "adaptive,pid-adaptive"; "" = the paper's core comparison: `+strings.Join(controlledSchemeNames(), ", ")+`)`)
		timeout       = cliflags.Timeout(fs, 0)
		cacheDir      = cliflags.CacheDir(fs, "results/.cache")
		cacheMaxBytes = cliflags.CacheMaxBytes(fs)
		grace         = cliflags.ShutdownGrace(fs, 0)

		cores        = cliflags.Cores(fs)
		powerCap     = cliflags.PowerCap(fs)
		governorName = cliflags.Governor(fs)
		governorGain = cliflags.GovernorGain(fs)

		useCache   = fs.Bool("cache", true, "memoize simulation results across artifacts (identical output, fewer simulations)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return 2
	}

	opt := experiment.Options{
		Instructions: *insts, Seed: *seed, Timeout: *timeout,
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes, CorpusDir: *corpusDir,
		Cores: *cores, PowerCapW: *powerCap, Governor: *governorName, GovernorGain: *governorGain,
	}
	if !*useCache {
		opt.CacheDir = ""
	}
	for _, s := range csv(*schemesCSV) {
		opt.Schemes = append(opt.Schemes, experiment.Scheme(s))
	}
	opt.Benchmarks = csv(*benchCSV)
	if *faultsSpec != "default" {
		for _, f := range csv(*faultsSpec) {
			lv, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return usage("-faults: bad intensity %q: %v", f, err)
			}
			opt.FaultIntensities = append(opt.FaultIntensities, lv)
		}
	}

	if !*all && *only == "" && *faultsSpec == "" {
		return usage("pass -all, -only <ids>, or -faults <levels>; see -h")
	}
	want := map[string]bool{"robustness": *faultsSpec != ""}
	var ids []string
	for _, a := range experiment.Artifacts() {
		ids = append(ids, a.ID)
	}
	for _, id := range csv(*only) {
		if !slices.Contains(ids, id) {
			return usage("-only: unknown artifact %q (available: %s)", id, strings.Join(ids, " "))
		}
		want[id] = true
	}
	var selected []experiment.ArtifactInfo
	for _, a := range experiment.Artifacts() {
		if want[a.ID] || (*all && !explicitOnly[a.ID]) {
			want[a.ID] = true
			selected = append(selected, a)
		}
	}

	ctx, stop := cliflags.GraceNotifyContext(context.Background(), *grace)
	defer stop()
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
		}
	}()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	}

	// The first matrix the run computes reports each row on stderr as it
	// finishes and, with -out, rewrites the selected fig9/fig10 .txt
	// files with the figure over the rows delivered so far, before the
	// row's progress line goes out. A long sweep thus shows progress, an
	// interrupt leaves those files current up to the last row, and the
	// files after the last row hold the figures' own renders, which
	// later rewrite them with the same bytes.
	var (
		matrixDone bool
		start      time.Time // of the render in progress
		cells      int       // results in the rows so far
	)
	prefix := experiment.Matrix{Results: map[string]map[experiment.Scheme]*mcd.Result{}} // the rows so far
	rows := func(ev experiment.RowEvent) {
		prefix.Schemes = ev.Schemes
		prefix.Benchmarks = append(prefix.Benchmarks, ev.Bench)
		prefix.Results[ev.Bench] = ev.Results
		for _, a := range selected {
			if figure := streamed[a.ID]; figure != nil && *out != "" {
				rep := figure(&prefix)
				if err := os.WriteFile(filepath.Join(*out, a.ID+".txt"), []byte(rep.String()), 0o644); err != nil {
					fmt.Fprintf(stderr, "experiments: streaming %s.txt: %v\n", a.ID, err)
				}
			}
		}
		state := "done"
		if !ev.Complete {
			state = "incomplete: cells failed or were cancelled"
		}
		fmt.Fprintf(stderr, "experiments: matrix row %d/%d (%s) %s\n", ev.Index+1, ev.Total, ev.Bench, state)
		cells += len(ev.Results)
		if ev.Index+1 == ev.Total {
			d := time.Since(start).Seconds()
			fmt.Fprintf(stderr, "experiments: matrix %d cells in %.1fs (%.1f cells/s)\n", cells, d, float64(cells)/d)
			matrixDone = true
		}
	}

	// With -cache=false each artifact renders on a harness of its own,
	// forked from one that only keeps recorded traces, so no result
	// outlives the artifact that computed it and nothing touches disk.
	traces := experiment.NewHarness()
	for _, a := range selected {
		o := opt
		if !*useCache {
			o.Harness = traces.Fork()
		}
		formats := []experiment.ArtifactFormat{experiment.FormatText}
		if *out != "" && *asJSON {
			formats = append(formats, experiment.FormatJSON)
		}
		if *out != "" && *asSVG && a.SVG {
			formats = append(formats, experiment.FormatSVG)
		}
		for _, format := range formats {
			o.RowFlush = nil
			if !matrixDone {
				o.RowFlush = rows
			}
			start = time.Now()
			body, _, err := experiment.RenderArtifactContext(ctx, a.ID, format, o)
			if err != nil {
				fmt.Fprintf(stderr, "experiments: %s: %v\n", a.ID, err)
				if errors.Is(err, experiment.ErrCancelled) {
					fmt.Fprintln(stderr, "experiments: interrupted; artifacts printed so far were flushed")
					return 130
				}
				return 1
			}
			if format == experiment.FormatText {
				stdout.Write(body) //nolint:errcheck // stdout
			}
			if *out != "" {
				if err := os.WriteFile(filepath.Join(*out, a.ID+"."+string(format)), body, 0o644); err != nil {
					fmt.Fprintln(stderr, "experiments:", err)
					return 1
				}
			}
		}
	}

	if *useCache {
		// A run is simulated or served: from the memo, or from disk.
		hits, misses := experiment.CacheStats()
		sims := experiment.SimulationCount()
		fmt.Fprintf(stderr, "experiments: %d simulations, %d served from cache\n", sims, hits+misses-sims)
		if *cacheDir != "" {
			st, derr := experiment.DiskCacheStats()
			fmt.Fprintf(stderr, "experiments: disk cache %s: %d hits, %d misses, %d writes\n",
				*cacheDir, st.Hits, st.Misses, st.Writes)
			if derr != nil {
				fmt.Fprintln(stderr, "experiments: disk cache degraded:", derr)
			}
		}
	}
	return 0
}

// csv splits a comma-separated flag value into its trimmed, non-empty
// entries.
func csv(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
