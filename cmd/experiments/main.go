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
// Artifact IDs: table1 table2 fig7 fig8 fig9 fig10 fig11 table3 table4
// remarks ablation transitions global qref interfaces partitions delays
// seeds summary robustness capsweep captransient. The robustness sweep
// and the chip artifacts (capsweep, captransient) only run when asked
// for explicitly, never under -all.
//
// Simulation results persist across runs in results/.cache by default
// (-cache-dir); delete that directory or pass -cache-dir "" to force a
// cold run. Artifacts are byte-identical either way.
//
// SIGINT/SIGTERM cancel in-flight simulations; artifacts already
// produced are flushed before exit, and a partially completed matrix
// still renders the rows whose cells finished.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mcddvfs"
	"mcddvfs/internal/cliflags"
	"mcddvfs/internal/experiment"
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

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		only   = flag.String("only", "", "comma-separated artifact IDs to run")
		insts  = flag.Int64("insts", 500000, "instructions per simulation")
		seed   = flag.Int64("seed", 1, "simulation seed")
		out    = flag.String("out", "", "directory to also write per-artifact .txt files")
		asJSON = flag.Bool("json", false, "with -out, also write per-artifact .json files")
		asSVG  = flag.Bool("svg", false, "with -out, also render figures 7-11 as .svg files")

		corpusDir = flag.String("corpus", "", "resolve matrix benchmarks from this trace corpus directory (cmd/tracegen -corpus): streams traces from disk with bounded memory; the corpus must match -seed and -insts")
		benchCSV  = flag.String("bench", "", `restrict the benchmark × scheme sweeps to this comma-separated subset of benchmarks ("" = all; with -corpus, the corpus's members in manifest order)`)

		faultsSpec = flag.String("faults", "", `run the robustness artifact at these comma-separated fault intensities in [0,1] (e.g. "0,0.5,1"; "default" = 0,0.25,0.5,0.75,1)`)
		schemesCSV = flag.String("schemes", "",
			`restrict the benchmark × scheme sweeps to this comma-separated subset of registered schemes (e.g. "adaptive,pid-adaptive"; "" = the paper's core comparison: `+strings.Join(controlledSchemeNames(), ", ")+`)`)
		timeout       = cliflags.Timeout(flag.CommandLine, 0)
		cacheDir      = cliflags.CacheDir(flag.CommandLine, "results/.cache")
		cacheMaxBytes = cliflags.CacheMaxBytes(flag.CommandLine)
		grace         = cliflags.ShutdownGrace(flag.CommandLine, 0)

		cores        = cliflags.Cores(flag.CommandLine)
		powerCap     = cliflags.PowerCap(flag.CommandLine)
		governorName = cliflags.Governor(flag.CommandLine)
		governorGain = cliflags.GovernorGain(flag.CommandLine)

		useCache   = flag.Bool("cache", true, "memoize simulation results across artifacts (identical output, fewer simulations)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	ctx, stop := cliflags.GraceNotifyContext(context.Background(), *grace)
	defer stop()

	if !*useCache {
		*cacheDir = ""
	}
	// check ends the run on an error no artifact can recover from.
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	check(err)
	// Runs on the success path; error paths below os.Exit and lose the
	// profile, which is fine — a failed run is not worth profiling.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	want := map[string]bool{}
	switch {
	case *all:
	case *only != "":
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	case *faultsSpec != "":
		// -faults alone selects just the robustness artifact.
	default:
		fmt.Fprintln(os.Stderr, "experiments: pass -all, -only <ids>, or -faults <levels>; see -h")
		os.Exit(2)
	}
	sel := func(id string) bool { return *all || want[id] }

	var intensities []float64
	if *faultsSpec != "" && *faultsSpec != "default" {
		for _, f := range strings.Split(*faultsSpec, ",") {
			lv, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -faults: bad intensity %q: %v\n", f, err)
				os.Exit(2)
			}
			intensities = append(intensities, lv)
		}
	}

	opt := experiment.Options{
		Instructions: *insts, Seed: *seed, Timeout: *timeout, Context: ctx,
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes, CorpusDir: *corpusDir,
		Cores: *cores, PowerCapW: *powerCap, Governor: *governorName, GovernorGain: *governorGain,
	}
	if *schemesCSV != "" {
		for _, s := range strings.Split(*schemesCSV, ",") {
			opt.Schemes = append(opt.Schemes, experiment.Scheme(strings.TrimSpace(s)))
		}
	}
	if *benchCSV != "" {
		for _, b := range strings.Split(*benchCSV, ",") {
			opt.Benchmarks = append(opt.Benchmarks, strings.TrimSpace(b))
		}
	}
	// fresh returns the options one artifact runs under. With -cache=false
	// each artifact gets a harness of its own, forked from one that only
	// keeps recorded traces, so no result outlives the artifact that
	// computed it and nothing touches disk.
	traces := experiment.NewHarness()
	fresh := func() experiment.Options {
		o := opt
		if !*useCache {
			o.Harness = traces.Fork()
		}
		return o
	}
	emit := func(rep experiment.Report, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", rep.ID, err)
			if errors.Is(err, experiment.ErrCancelled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted; artifacts printed so far were flushed")
				os.Exit(130)
			}
			os.Exit(1)
		}
		rep.WriteTo(os.Stdout) //nolint:errcheck // stdout
		if *out != "" {
			check(os.MkdirAll(*out, 0o755))
			check(os.WriteFile(filepath.Join(*out, rep.ID+".txt"), []byte(rep.String()), 0o644))
			if *asJSON {
				blob, err := json.MarshalIndent(rep, "", "  ")
				check(err)
				check(os.WriteFile(filepath.Join(*out, rep.ID+".json"), blob, 0o644))
			}
		}
	}

	if sel("table1") {
		emit(experiment.Table1(opt), nil)
	}
	if sel("table4") {
		emit(experiment.Table4(), nil)
	}
	if sel("remarks") {
		rep, err := experiment.RemarksReport()
		emit(rep, err)
	}

	var classes []experiment.BenchClass
	if sel("table2") || sel("fig11") || sel("table3") || sel("summary") {
		rep, cl, err := experiment.Table2(fresh())
		classes = cl
		if sel("table2") {
			emit(rep, err)
		} else if err != nil {
			emit(rep, err)
		}
	}
	writeSVG := func(id string, svg string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s.svg: %v\n", id, err)
			os.Exit(1)
		}
		check(os.WriteFile(filepath.Join(*out, id+".svg"), []byte(svg), 0o644))
	}
	if sel("fig7") {
		opt := fresh()
		rep, err := experiment.Figure7(opt)
		emit(rep, err)
		if *asSVG && *out != "" {
			svg, err := experiment.Figure7SVG(opt)
			writeSVG("fig7", svg, err)
		}
	}
	if sel("fig8") {
		opt := fresh()
		rep, err := experiment.Figure8(opt)
		emit(rep, err)
		if *asSVG && *out != "" {
			svg, err := experiment.Figure8SVG(opt)
			writeSVG("fig8", svg, err)
		}
	}

	if sel("fig9") || sel("fig10") || sel("fig11") || sel("summary") {
		// Stream fig9/fig10 rows into their .txt files as each
		// benchmark's cells finish, so a long sweep shows progress and
		// an interrupt leaves the files current up to the last complete
		// row. The batch render below rewrites the same bytes, so the
		// streamed file is a head start, never a divergence.
		mopt := fresh()
		type rowStream struct {
			id string
			f  *os.File
			s  *experiment.FigureStream
		}
		var streams []rowStream
		if *out != "" {
			check(os.MkdirAll(*out, 0o755))
			for _, id := range []string{"fig9", "fig10"} {
				if !sel(id) {
					continue
				}
				f, err := os.Create(filepath.Join(*out, id+".txt"))
				check(err)
				s, err := experiment.NewFigureStream(f, id, opt)
				check(err)
				streams = append(streams, rowStream{id: id, f: f, s: s})
			}
		}
		mopt.RowFlush = func(ev experiment.RowEvent) {
			for _, rs := range streams {
				rs.s.Row(ev)
			}
			fmt.Fprintf(os.Stderr, "experiments: matrix row %d/%d (%s) done\n",
				ev.Index+1, ev.Total, ev.Bench)
		}
		start := time.Now()
		m, err := experiment.RunMatrixContext(ctx, mopt)
		if err != nil && (m == nil || !errors.Is(err, experiment.ErrCancelled)) {
			fmt.Fprintln(os.Stderr, "experiments: matrix:", err)
			os.Exit(1)
		}
		for _, rs := range streams {
			if serr := rs.s.Finish(m); serr != nil {
				fmt.Fprintf(os.Stderr, "experiments: streaming %s.txt: %v\n", rs.id, serr)
			}
			rs.f.Close()
		}
		if d := time.Since(start); d > 0 {
			cells := len(m.Benchmarks) * (len(m.Schemes) + 1)
			fmt.Fprintf(os.Stderr, "experiments: matrix %d cells in %.1fs (%.1f cells/s)\n",
				cells, d.Seconds(), float64(cells)/d.Seconds())
		}
		if m.Corpus != nil {
			fmt.Fprintf(os.Stderr, "experiments: corpus streaming: peak %d bytes resident (bound %d), %d chunk loads, %d heals\n",
				m.Corpus.PeakResidentBytes, m.Corpus.WindowBytes, m.Corpus.Loads, m.Corpus.Heals)
		}
		interrupted := err != nil
		if interrupted {
			fmt.Fprintln(os.Stderr, "experiments: matrix interrupted; rendering completed cells only")
		}
		for _, f := range m.Failures {
			fmt.Fprintln(os.Stderr, "experiments: matrix cell failed:", f.Error())
		}
		if sel("fig9") {
			emit(m.Figure9(), nil)
			if *asSVG && *out != "" {
				svg, err := m.Figure9SVG()
				writeSVG("fig9", svg, err)
			}
		}
		if sel("fig10") {
			emit(m.Figure10(), nil)
			if *asSVG && *out != "" {
				svg, err := m.Figure10SVG()
				writeSVG("fig10", svg, err)
			}
		}
		if sel("fig11") {
			fast := experiment.FastGroup(classes)
			if len(fast) == 0 {
				fmt.Fprintln(os.Stderr, "experiments: classifier found no fast benchmarks")
				os.Exit(1)
			}
			emit(m.Figure11(fast), nil)
			if *asSVG && *out != "" {
				svg, err := m.Figure11SVG(fast)
				writeSVG("fig11", svg, err)
			}
		}
		if sel("summary") {
			emit(experiment.Summary(m, classes), nil)
		}
		if interrupted {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; partial artifacts above were flushed")
			os.Exit(130)
		}
	}
	if sel("table3") {
		fast := experiment.FastGroup(classes)
		rep, err := experiment.Table3(fresh(), fast)
		emit(rep, err)
	}
	if sel("ablation") {
		rep, err := experiment.Ablation(fresh(), []string{"adpcm_encode", "gsm_decode", "gzip", "swim"})
		emit(rep, err)
	}
	if sel("transitions") {
		rep, err := experiment.TransitionStyles(fresh(), []string{"adpcm_encode", "gsm_decode", "gzip", "swim"})
		emit(rep, err)
	}
	if sel("global") {
		rep, err := experiment.GlobalComparison(fresh(), []string{"adpcm_encode", "gzip", "swim", "epic_decode"})
		emit(rep, err)
	}
	if sel("qref") {
		rep, err := experiment.QRefSweep(fresh(), []string{"gsm_decode", "gzip", "swim"})
		emit(rep, err)
	}
	if sel("interfaces") {
		rep, err := experiment.InterfaceStudy(fresh(), []string{"gsm_decode", "swim"})
		emit(rep, err)
	}
	if sel("partitions") {
		rep, err := experiment.PartitionStudy(fresh(), []string{"adpcm_encode", "gsm_decode", "gzip", "mcf", "swim"})
		emit(rep, err)
	}
	if sel("delays") {
		rep, err := experiment.DelaySweep(fresh(), []string{"adpcm_encode", "gsm_decode", "gzip"})
		emit(rep, err)
	}
	if sel("seeds") {
		rep, err := experiment.SeedStudy(fresh(), []string{"adpcm_encode", "gzip", "swim"}, 5)
		emit(rep, err)
	}
	if *faultsSpec != "" || want["robustness"] {
		rep, err := experiment.FaultSweepContext(ctx, fresh(),
			[]string{"adpcm_encode", "gsm_decode", "gzip", "swim"}, intensities)
		emit(rep, err)
	}
	// The chip artifacts, like robustness, run only when asked for
	// explicitly — a multi-core governor sweep is not part of the
	// paper's single-core reproduction that -all regenerates.
	if want["capsweep"] {
		opt := fresh()
		rep, err := experiment.CapSweepContext(ctx, opt)
		emit(rep, err)
		if *asSVG && *out != "" {
			svg, err := experiment.CapSweepSVG(ctx, opt)
			writeSVG("capsweep", svg, err)
		}
	}
	if want["captransient"] {
		rep, err := experiment.CapTransientContext(ctx, fresh())
		emit(rep, err)
	}

	if *useCache {
		hits, misses := experiment.CacheStats()
		fmt.Fprintf(os.Stderr, "experiments: %d simulations, %d served from cache\n", misses, hits)
		if *cacheDir != "" {
			st, derr := experiment.DiskCacheStats()
			fmt.Fprintf(os.Stderr, "experiments: disk cache %s: %d hits, %d misses, %d writes\n",
				*cacheDir, st.Hits, st.Misses, st.Writes)
			if derr != nil {
				fmt.Fprintln(os.Stderr, "experiments: disk cache degraded:", derr)
			}
		}
	}
}
