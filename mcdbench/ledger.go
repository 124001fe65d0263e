package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"mcddvfs/internal/baselines"
	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The traced ledger runs a fixed amount of work from every workload —
// one core pass, one sweep op, ledgerServeOps serve requests — timed
// around the public seams of each layer. Its counts depend only on the
// seed, so two ledgers at one seed report identical counts; it is the
// same on every -workload.
const (
	ledgerServeOps = 1000
	// ledgerRepeats is how often the ledger re-times a single call
	// whose median it reports.
	ledgerRepeats = 5
)

// controllerFactories builds, per controlled scheme, the controller
// the scheme registry attaches to each execution domain. The ledger
// builds controllers itself so it can wrap them; its byte-identity
// check against experiment.AttachScheme proves the wiring matches.
var controllerFactories = map[experiment.Scheme]func(isa.ExecDomain) mcd.Controller{
	experiment.SchemeAdaptive: func(d isa.ExecDomain) mcd.Controller {
		return control.NewAdaptive(control.DefaultConfig(d))
	},
	experiment.SchemePID: func(d isa.ExecDomain) mcd.Controller {
		cfg := baselines.DefaultPID()
		if d == isa.DomainInt {
			cfg.QRef = 7
		}
		return baselines.NewPID(cfg)
	},
	experiment.SchemeAttackDecay: func(d isa.ExecDomain) mcd.Controller {
		cfg := baselines.DefaultAttackDecay()
		if d == isa.DomainInt {
			cfg.QRef = 7
		}
		return baselines.NewAttackDecay(cfg)
	},
}

// countingController wraps mcd.Controller: Observe calls, their host
// time, and how many asked for a new frequency. One processor drives
// it, so it needs no locking.
type countingController struct {
	inner     mcd.Controller
	observes  int64
	retargets int64
	ns        int64
}

func (c *countingController) Name() string { return c.inner.Name() }
func (c *countingController) Reset()       { c.inner.Reset() }

func (c *countingController) Observe(now clock.Time, occupancy int, currentMHz float64) (float64, bool) {
	t0 := time.Now()
	mhz, change := c.inner.Observe(now, occupancy, currentMHz)
	c.ns += int64(time.Since(t0))
	c.observes++
	if change {
		c.retargets++
	}
	return mhz, change
}

// countingSource wraps trace.Source and counts the instructions fed.
type countingSource struct {
	inner trace.Source
	fed   int64
}

func (s *countingSource) Name() string { return s.inner.Name() }

func (s *countingSource) Next() (isa.Inst, bool) {
	in, ok := s.inner.Next()
	if ok {
		s.fed++
	}
	return in, ok
}

// countingGovernor wraps mcd.Governor: epochs and their host time.
// The chip calls Apportion on one goroutine with every core paused.
type countingGovernor struct {
	inner  mcd.Governor
	epochs int64
	ns     int64
}

func (g *countingGovernor) Apportion(now clock.Time, powerW, capMHz []float64) {
	t0 := time.Now()
	g.inner.Apportion(now, powerW, capMHz)
	g.ns += int64(time.Since(t0))
	g.epochs++
}

// probe is one set of wrappers around the simulator's public seams and
// what they counted. A nil *probe installs no wrappers.
type probe struct {
	ctls []*countingController
	srcs []*countingSource
	govs []*countingGovernor
}

// attachScheme wires sch's controllers onto proc: wrapped in counting
// controllers when p is non-nil, through experiment.AttachScheme when
// it is nil.
func (p *probe) attachScheme(proc *mcd.Processor, sch experiment.Scheme, seed int64) error {
	if p == nil {
		return experiment.AttachScheme(proc, sch, experiment.Options{Seed: seed, Instructions: coreInsts})
	}
	mk, ok := controllerFactories[sch]
	if !ok {
		if sch == experiment.SchemeNone {
			return nil
		}
		return fmt.Errorf("ledger: no controller factory for scheme %q", sch)
	}
	for d := 0; d < isa.NumExecDomains; d++ {
		c := &countingController{inner: mk(isa.ExecDomain(d))}
		p.ctls = append(p.ctls, c)
		proc.Attach(isa.ExecDomain(d), c)
	}
	return nil
}

// wrapSource wraps src in a counting source when p is non-nil.
func (p *probe) wrapSource(src trace.Source) trace.Source {
	if p == nil {
		return src
	}
	s := &countingSource{inner: src}
	p.srcs = append(p.srcs, s)
	return s
}

// wrapGovernor wraps g in a counting governor when p is non-nil.
func (p *probe) wrapGovernor(g mcd.Governor) mcd.Governor {
	if p == nil {
		return g
	}
	w := &countingGovernor{inner: g}
	p.govs = append(p.govs, w)
	return w
}

func (p *probe) fed() int64 {
	var n int64
	for _, s := range p.srcs {
		n += s.fed
	}
	return n
}

// add folds the probe's counts into the tracer's counters.
func (p *probe) add(tr *tracer) {
	obs, gov, next := tr.counter("mcd.Controller.Observe"), tr.counter("mcd.Governor.Apportion"), tr.counter("trace.Source.Next")
	for _, c := range p.ctls {
		obs.calls.Add(c.observes)
		obs.totalNs.Add(c.ns)
	}
	for _, g := range p.govs {
		gov.calls.Add(g.epochs)
		gov.totalNs.Add(g.ns)
	}
	next.calls.Add(p.fed())
}

// runLedger runs the traced ledger and returns every per-layer metric.
func runLedger(ctx context.Context, e *env, workload string) (map[string]metric, error) {
	tr := newTracer()
	m := make(map[string]metric)
	root := tr.begin("ledger", 0)
	gen := &genClock{}
	if err := ledgerCore(e, tr, root, m, gen); err != nil {
		return nil, err
	}
	if err := ledgerSweep(ctx, e, tr, root, m, gen); err != nil {
		return nil, err
	}
	if err := ledgerServe(ctx, e, tr, root, m); err != nil {
		return nil, err
	}
	tr.end(root)
	m["trace.gen_ns_per_inst"] = metric{float64(gen.d.Nanoseconds()) / float64(gen.insts), "ns/inst"}
	tr.summary()
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	return m, nil
}

// genClock accumulates trace-generation host time across the ledger.
type genClock struct {
	d     time.Duration
	insts int64
}

// cellStat is one single-core cell of the traced core pass.
type cellStat struct {
	bench          string
	scheme         experiment.Scheme
	untraced       time.Duration
	res            *mcd.Result
	engine         map[string]clock.DomainEngineStats
	controlled     bool
	observes, nsOb int64
	retargets      int64
}

// ledgerCore runs one untraced and one traced core pass, the replay
// drain, the worker-pool comparison and the one-core chip comparison.
func ledgerCore(e *env, tr *tracer, root int, m map[string]metric, gen *genClock) error {
	part := tr.begin("core", root)
	defer tr.end(part)
	sp := tr.begin("core setup", part)
	st, err := newCore(e.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	gen.d += st.genTime
	gen.insts += st.genInsts

	// Drain every recorded stream through a Replayer alone.
	var drain []float64
	for i := 0; i < ledgerRepeats; i++ {
		t0 := time.Now()
		var n int64
		for _, bench := range coreBenchmarks {
			r := st.single[bench].Replay()
			for _, ok := r.Next(); ok; _, ok = r.Next() {
				n++
			}
		}
		drain = append(drain, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	m["trace.replay_ns_per_inst"] = metric{median(drain), "ns/inst"}

	// The untraced pass: plain AttachScheme, no wrappers.
	sp = tr.begin("core pass untraced", part)
	var cells []*cellStat
	var untracedTotal time.Duration
	ref := make(map[string][sha256.Size]byte)
	for _, bench := range coreBenchmarks {
		for _, sch := range coreSchemes {
			c := &cellStat{bench: bench, scheme: sch}
			csp := tr.begin("mcd.Processor.Run "+string(sch), sp)
			t0 := time.Now()
			res, _, err := st.runSingle(bench, sch, nil)
			c.untraced = time.Since(t0)
			tr.end(csp)
			untracedTotal += c.untraced
			e.tally.op(err)
			if err != nil {
				return err
			}
			if ref[bench+"/"+string(sch)], err = digest(res); err != nil {
				return err
			}
			cells = append(cells, c)
		}
	}
	for _, gov := range chipGovernors {
		csp := tr.begin("mcd.Chip.Run "+gov, sp)
		t0 := time.Now()
		cr, err := st.runChip(gov, 0, nil)
		untracedTotal += time.Since(t0)
		tr.end(csp)
		if err == nil {
			err = st.checkChip(gov, cr)
		}
		e.tally.op(err)
	}
	tr.end(sp)

	// The traced pass: every seam wrapped; results must not change.
	sp = tr.begin("core pass traced", part)
	var tracedTotal time.Duration
	var singleFed, singleInsts int64
	for _, c := range cells {
		pr := &probe{}
		csp := tr.begin("mcd.Processor.Run "+string(c.scheme)+" traced", sp)
		t0 := time.Now()
		res, proc, err := st.runSingle(c.bench, c.scheme, pr)
		tracedTotal += time.Since(t0)
		tr.end(csp)
		if err == nil {
			var d [32]byte
			if d, err = digest(res); err == nil && d != ref[c.bench+"/"+string(c.scheme)] {
				err = fmt.Errorf("%s/%s: traced result differs from the untraced one", c.bench, c.scheme)
			}
		}
		e.tally.op(err)
		if err != nil {
			return err
		}
		pr.add(tr)
		c.res, c.engine = res, proc.EngineStats()
		c.controlled = len(pr.ctls) > 0
		for _, cc := range pr.ctls {
			c.observes += cc.observes
			c.nsOb += cc.ns
			c.retargets += cc.retargets
		}
		singleFed += pr.fed()
		singleInsts += res.Metrics.Instructions
	}
	var epochs, apportionNs, chipRuns int64
	for _, gov := range chipGovernors {
		pr := &probe{}
		csp := tr.begin("mcd.Chip.Run "+gov+" traced", sp)
		t0 := time.Now()
		cr, err := st.runChip(gov, 0, pr)
		tracedTotal += time.Since(t0)
		tr.end(csp)
		if err == nil {
			err = st.checkChip(gov, cr)
		}
		if err == nil && pr.fed() != int64(len(st.chip))*coreInsts {
			err = fmt.Errorf("chip/%s: %d instructions fed, want %d", gov, pr.fed(), int64(len(st.chip))*coreInsts)
		}
		e.tally.op(err)
		if err != nil {
			return err
		}
		pr.add(tr)
		for _, g := range pr.govs {
			epochs += g.epochs
			apportionNs += g.ns
		}
		chipRuns++
	}
	tr.end(sp)
	if singleFed != singleInsts {
		e.tally.op(fmt.Errorf("core pass fed %d instructions and retired %d", singleFed, singleInsts))
	}
	fmt.Printf("core pass: untraced %.1f ms, traced %.1f ms\n", ms(untracedTotal), ms(tracedTotal))
	m["ledger.overhead_share"] = metric{(tracedTotal - untracedTotal).Seconds() / untracedTotal.Seconds(), "share"}

	coreCellMetrics(cells, m)
	m["governor.epochs_per_run"] = metric{float64(epochs) / float64(chipRuns), "count"}
	m["governor.apportion_us"] = metric{float64(apportionNs) / float64(epochs) / 1e3, "us"}

	// The same chip cell on one worker and on the default pool.
	sp = tr.begin("chip pool comparison", part)
	var one, pool []float64
	for i := 0; i < ledgerRepeats; i++ {
		for _, workers := range []int{1, 0} {
			t0 := time.Now()
			cr, err := st.runChip(chipGovernors[0], workers, nil)
			secs := time.Since(t0).Seconds()
			if err == nil {
				err = st.checkChip(chipGovernors[0], cr)
			}
			e.tally.op(err)
			if workers == 1 {
				one = append(one, secs)
			} else {
				pool = append(pool, secs)
			}
		}
	}
	tr.end(sp)
	m["chip.pool_speedup"] = metric{median(one) / median(pool), "ratio"}
	m["chip.insts_per_s"] = metric{float64(len(st.chip)) * coreInsts / median(pool), "1/s"}

	sp = tr.begin("one-core chip comparison", part)
	ratio, err := oneCoreRatio(st, e.tally)
	tr.end(sp)
	if err != nil {
		return err
	}
	m["chip.one_core_ratio"] = metric{ratio, "ratio"}
	return nil
}

// coreCellMetrics derives the simulator and control-loop metrics of the
// traced core pass and prints the per-cell edge table.
func coreCellMetrics(cells []*cellStat, m map[string]metric) {
	var insts, ctlInsts, observes, obsNs, retargets int64
	var slow, skipped, sleeps, wakes uint64
	var host time.Duration
	var cpi, energy float64
	fmt.Printf("%-14s %-13s %10s %10s %8s\n", "bench", "scheme", "ns/inst", "skipped", "IPC")
	for _, c := range cells {
		n := c.res.Metrics.Instructions
		insts += n
		host += c.untraced
		cpi += 1 / c.res.IPC
		energy += c.res.Metrics.EnergyJ
		var cellSlow, cellSkipped uint64
		for _, s := range c.engine {
			cellSlow += s.SlowEdges
			cellSkipped += s.SkippedEdges
			sleeps += s.Sleeps
			for _, w := range s.Wakes {
				wakes += w
			}
		}
		slow += cellSlow
		skipped += cellSkipped
		if c.controlled {
			ctlInsts += n
			observes += c.observes
			obsNs += c.nsOb
			retargets += c.retargets
		}
		fmt.Printf("%-14s %-13s %10.1f %9.1f%% %8.3f\n", c.bench, c.scheme,
			float64(c.untraced.Nanoseconds())/float64(n),
			100*float64(cellSkipped)/float64(cellSlow+cellSkipped), c.res.IPC)
	}
	fi := float64(insts)
	m["mcd.host_ns_per_inst"] = metric{float64(host.Nanoseconds()) / fi, "ns/inst"}
	m["mcd.host_ns_per_edge"] = metric{float64(host.Nanoseconds()) / float64(slow+skipped), "ns/edge"}
	m["mcd.sim_cycles_per_inst"] = metric{cpi / float64(len(cells)), "cycles/inst"}
	m["clock.slow_edges_per_inst"] = metric{float64(slow) / fi, "count/inst"}
	m["clock.skipped_edges_per_inst"] = metric{float64(skipped) / fi, "count/inst"}
	m["clock.sleeps_per_inst"] = metric{float64(sleeps) / fi, "count/inst"}
	m["clock.wakes_per_inst"] = metric{float64(wakes) / fi, "count/inst"}
	m["control.observes_per_inst"] = metric{float64(observes) / float64(ctlInsts), "count/inst"}
	m["control.observe_ns"] = metric{float64(obsNs) / float64(observes), "ns"}
	m["control.retargets_per_kinst"] = metric{1000 * float64(retargets) / float64(ctlInsts), "count/kinst"}
	m["power.energy_nj_per_inst"] = metric{1e9 * energy / fi, "nJ/inst"}
}

// oneCoreRatio times a one-core governorless chip against
// Processor.Run on the same trace and scheme, checks the two results
// are identical, and returns chip time ÷ processor time. It also
// prints how the single-core rate moves with the scheme and budget,
// the other two suspects for the chip-vs-processor gap.
func oneCoreRatio(st *coreState, t *tally) (float64, error) {
	const bench = "gzip"
	sch := experiment.SchemeAdaptive
	var chipS, procS []float64
	for i := 0; i < ledgerRepeats; i++ {
		t0 := time.Now()
		res, _, err := st.runSingle(bench, sch, nil)
		procS = append(procS, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		chip, err := mcd.NewChip(mcd.ChipConfig{Cores: []mcd.Config{machine(st.seed)}})
		if err != nil {
			return 0, err
		}
		if err := experiment.AttachScheme(chip.Core(0), sch, experiment.Options{Seed: st.seed, Instructions: coreInsts}); err != nil {
			return 0, err
		}
		t0 = time.Now()
		cr, err := chip.Run([]trace.Source{st.single[bench].Replay()})
		chipS = append(chipS, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		a, err := digest(res)
		if err != nil {
			return 0, err
		}
		b, err := digest(cr.Cores[0])
		if err != nil {
			return 0, err
		}
		if a != b {
			err = fmt.Errorf("one-core chip result differs from Processor.Run")
		}
		t.op(err)
	}
	fmt.Printf("one-core chip vs Processor.Run, %s/%s at %d insts: %.2f ms vs %.2f ms\n",
		bench, sch, coreInsts, 1e3*median(chipS), 1e3*median(procS))

	short, err := trace.RecordProfile(mustProfile(bench), trace.StreamSeed(st.seed), coreInsts*3/10)
	if err != nil {
		return 0, err
	}
	rate := func(sch experiment.Scheme, rec *trace.Recorded) (float64, error) {
		var secs []float64
		for i := 0; i < ledgerRepeats; i++ {
			p, err := mcd.New(machine(st.seed))
			if err != nil {
				return 0, err
			}
			if err := experiment.AttachScheme(p, sch, experiment.Options{Seed: st.seed}); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := p.Run(rec.Replay()); err != nil {
				return 0, err
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		return float64(rec.Len()) / median(secs), nil
	}
	for _, c := range []struct {
		sch experiment.Scheme
		rec *trace.Recorded
	}{
		{experiment.SchemeNone, st.single[bench]},
		{experiment.SchemeAdaptive, st.single[bench]},
		{experiment.SchemeNone, short},
		{experiment.SchemeAdaptive, short},
	} {
		r, err := rate(c.sch, c.rec)
		if err != nil {
			return 0, err
		}
		fmt.Printf("Processor.Run %s/%s at %d insts: %.0f sim insts/s\n", bench, c.sch, c.rec.Len(), r)
	}
	return median(chipS) / median(procS), nil
}

func mustProfile(name string) trace.Profile {
	p, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ledgerSweep runs one untraced and one traced sweep op and times the
// stream generation a cold matrix pays.
func ledgerSweep(ctx context.Context, e *env, tr *tracer, root int, m map[string]metric, gen *genClock) error {
	part := tr.begin("sweep", root)
	defer tr.end(part)
	sp := tr.begin("sweep setup", part)
	s, err := newSweep(ctx, e.seed, filepath.Join(e.work, "sweep"))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("sweep op untraced", part)
	plain, err := s.runOp(ctx, nil, 0)
	tr.end(sp)
	e.tally.op(err)
	if err != nil {
		return err
	}
	sp = tr.begin("sweep op traced", part)
	r, err := s.runOp(ctx, tr, sp)
	tr.end(sp)
	e.tally.op(err)
	if err != nil {
		return err
	}
	fmt.Printf("sweep op: untraced %.1f ms, traced %.1f ms\n", ms(plain.cold+sum(plain.warm)), ms(r.cold+sum(r.warm)))

	sp = tr.begin("trace.RecordProfile sweep streams", part)
	t0 := time.Now()
	for _, bench := range sweepBenchmarks {
		if _, err := trace.RecordProfile(mustProfile(bench), trace.StreamSeed(e.seed), sweepInsts); err != nil {
			return err
		}
	}
	genTime := time.Since(t0)
	tr.end(sp)
	gen.d += genTime
	gen.insts += int64(len(sweepBenchmarks)) * sweepInsts

	cells := float64(plain.cells)
	warm := median(seconds(plain.warm))
	m["trace.gen_share"] = metric{genTime.Seconds() / plain.cold.Seconds(), "share"}
	m["experiment.cold_matrix_ms"] = metric{ms(plain.cold), "ms"}
	m["experiment.warm_disk_matrix_ms"] = metric{1e3 * warm, "ms"}
	m["experiment.cold_cells_per_s"] = metric{cells / plain.cold.Seconds(), "1/s"}
	m["experiment.warm_cells_per_s"] = metric{cells / warm, "1/s"}
	m["diskcache.get_us_per_cell"] = metric{1e6 * warm / cells, "us"}
	m["diskcache.bytes"] = metric{float64(r.diskBytes), "bytes"}
	// Cache traffic accumulates over the traced sweep op here and the
	// serve part in ledgerServe.
	m["experiment.mem_hits"] = metric{float64(r.memHits), "count"}
	m["experiment.mem_misses"] = metric{float64(r.memMisses), "count"}
	m["diskcache.writes"] = metric{float64(r.diskWrites), "count"}
	m["diskcache.hits"] = metric{float64(r.diskHits), "count"}
	m["diskcache.errors"] = metric{float64(r.diskErrors), "count"}
	return nil
}

// ledgerServe times classification and an SVG render on the warm
// cache directly, then runs ledgerServeOps requests of the seeded mix.
func ledgerServe(ctx context.Context, e *env, tr *tracer, root int, m map[string]metric) error {
	part := tr.begin("serve", root)
	defer tr.end(part)
	sp := tr.begin("serve setup", part)
	s, err := newServe(ctx, e.seed, filepath.Join(e.work, "serve"))
	tr.end(sp)
	if err != nil {
		return err
	}
	defer s.close()

	warmOpt := s.options(s.warm[0].req)
	var classify, svg []float64
	// The direct renders' cache traffic is the serve path's, measured
	// where it repeats exactly: in the loop, concurrent identical
	// requests coalesce into one flight as timing allows.
	h0, miss0 := experiment.CacheStats()
	sp = tr.begin("direct renders", part)
	for i := 0; i < ledgerRepeats; i++ {
		csp := tr.begin("experiment.ClassifyBenchmarks", sp)
		t0 := time.Now()
		_, err := experiment.ClassifyBenchmarks(warmOpt)
		classify = append(classify, ms(time.Since(t0)))
		tr.end(csp)
		if err != nil {
			return err
		}
		csp = tr.begin("experiment.RenderArtifactContext fig9 svg", sp)
		t0 = time.Now()
		_, _, err = experiment.RenderArtifactContext(ctx, "fig9", experiment.FormatSVG, warmOpt)
		svg = append(svg, ms(time.Since(t0)))
		tr.end(csp)
		if err != nil {
			return err
		}
	}
	// Re-time every warm spec's direct render for the HTTP overhead.
	for i := range s.warm {
		var d []float64
		for j := 0; j < ledgerRepeats; j++ {
			t0 := time.Now()
			if _, err := s.render(ctx, s.warm[i].req); err != nil {
				return err
			}
			d = append(d, float64(time.Since(t0)))
		}
		s.warm[i].direct = time.Duration(median(d))
	}
	tr.end(sp)
	h1, miss1 := experiment.CacheStats()
	m["spectrum.classify_ms"] = metric{median(classify), "ms"}
	m["plot.fig9_svg_ms"] = metric{median(svg), "ms"}

	d0, err := experiment.DiskCacheStats()
	if err != nil {
		return err
	}
	sp = tr.begin("serve loop", part)
	run := s.loop(ctx, newDispenser(s, e.seed, ledgerServeOps), e.tally, tr, sp)
	tr.end(sp)
	d1, err := experiment.DiskCacheStats()
	if err != nil {
		return err
	}
	all := run.classMS(classFigure, classClassify, classCold, classDup)
	for c := reqClass(0); c < numClasses; c++ {
		fmt.Println(spread("request "+classNames[c], run.classMS(c), "ms"))
	}
	fmt.Println(spread("request all", all, "ms"))

	// Warm requests also coalesce when two identical ones overlap, as
	// timing allows; only the duplicate class's followers repeat
	// exactly.
	var overhead []float64
	followers, dupFollowers := 0, 0
	for _, smp := range run.samples {
		if !smp.leader {
			followers++
			if smp.class == classDup {
				dupFollowers++
			}
		}
		if smp.class == classFigure {
			overhead = append(overhead, smp.ms-ms(smp.spec.direct))
		}
	}
	fmt.Printf("serve loop: %d of %d replies were flight followers, %d of them duplicates\n", followers, len(run.samples), dupFollowers)
	m["serve.figure_p50_ms"] = metric{median(run.classMS(classFigure)), "ms"}
	m["serve.classify_p50_ms"] = metric{median(run.classMS(classClassify)), "ms"}
	m["serve.cold_p50_ms"] = metric{median(run.classMS(classCold, classDup)), "ms"}
	// One deck of ops sends over a thousand requests, so at least ten
	// lie beyond p99.
	m["serve.p99_ms"] = metric{quantile(all, 0.99), "ms"}
	m["serve.http_overhead_ms"] = metric{median(overhead), "ms"}
	m["serve.follower_share"] = metric{float64(dupFollowers) / float64(len(run.classMS(classDup))), "share"}
	m["serve.shed_share"] = metric{float64(run.shed) / float64(len(run.samples)+run.shed), "share"}
	add := func(name string, v uint64) {
		m[name] = metric{m[name].Value + float64(v), "count"}
	}
	add("experiment.mem_hits", h1-h0)
	add("experiment.mem_misses", miss1-miss0)
	add("diskcache.writes", d1.Writes-d0.Writes)
	add("diskcache.hits", d1.Hits-d0.Hits)
	add("diskcache.errors", d1.ReadErrors+d1.WriteErrors+d1.Corrupt-d0.ReadErrors-d0.WriteErrors-d0.Corrupt)
	return nil
}
