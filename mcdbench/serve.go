package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/serve"
	"mcddvfs/internal/trace"
)

// serveInsts is every warm spec's instruction budget, coldInsts every
// cold spec's. Cold specs are smaller because each one stays in the
// process-wide result cache for the rest of the run.
const (
	serveInsts = 25_000
	coldInsts  = 5_000
)

// reqClass is a request's class in the serve mix.
type reqClass int

const (
	classFigure   reqClass = iota // warm figure: render, plot, JSON
	classClassify                 // warm classification: spectrum over all 17 benchmarks
	classCold                     // fresh spec: trace, mcd, disk writes
	classDup                      // fresh spec posted by both clients at once
	numClasses
)

var classNames = [numClasses]string{"figure", "classify", "cold", "dup"}

// The serve mix, in ops per thousand, keeps the class split the
// benchmark was specified with: ~80% warm figures, ~10% warm
// classification, and the remaining ~10% cold, of which a third are
// duplicates. Within a class every listed spec has an equal share,
// since no recorded user favours one over another.
//
// warmMix is the warm part of the mix.
var warmMix = []struct {
	artifact, format string
	class            reqClass
	weight           int
}{
	{"fig9", "txt", classFigure, 100},
	{"fig9", "json", classFigure, 100},
	{"fig9", "svg", classFigure, 100},
	{"fig10", "txt", classFigure, 100},
	{"fig10", "json", classFigure, 100},
	{"fig10", "svg", classFigure, 100},
	{"fig7", "txt", classFigure, 100},
	{"fig8", "txt", classFigure, 100},
	{"table2", "txt", classClassify, 34},
	{"fig11", "txt", classClassify, 33},
	{"summary", "txt", classClassify, 33},
}

const (
	coldWeight = 70
	dupWeight  = 30
	// coldCells is how many cells a cold fig9 spec simulates: two
	// benchmarks × the baseline and the three controlled schemes.
	coldCells = 2 * 4
)

func init() {
	total := coldWeight + dupWeight
	for _, m := range warmMix {
		total += m.weight
	}
	if total != opsPerDeck {
		panic(fmt.Sprintf("mcdbench: serve mix weights sum to %d, want %d", total, opsPerDeck))
	}
}

// serveState is a running in-process mcdserve plus the warm specs'
// reference bodies.
type serveState struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	seed   int64 // simulation seed of every warm spec
	warm   []warmSpec
}

type warmSpec struct {
	req   serve.RenderRequest
	body  []byte // request body
	want  []byte // direct RenderArtifactContext bytes
	class reqClass
	// direct is the host time of a warm direct render of the spec,
	// measured by the ledger.
	direct time.Duration
}

// options mirrors how mcdserve turns a request into harness options.
func (s *serveState) options(req serve.RenderRequest) experiment.Options {
	return experiment.Options{Instructions: req.Instructions, Seed: req.Seed, Benchmarks: req.Benchmarks, CacheDir: s.dir}
}

// render is a direct RenderArtifactContext of req.
func (s *serveState) render(ctx context.Context, req serve.RenderRequest) ([]byte, error) {
	body, _, err := experiment.RenderArtifactContext(ctx, req.Artifact, experiment.ArtifactFormat(req.Format), s.options(req))
	return body, err
}

// newServe starts mcdserve on a loopback listener with a fresh disk
// cache and renders every warm spec, directly and then over HTTP, so
// every warm request afterwards hits the in-memory result cache.
func newServe(ctx context.Context, seed int64, dir string) (_ *serveState, err error) {
	experiment.ResetCache()
	workers := runtime.NumCPU()
	srv, err := serve.New(serve.Config{CacheDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	s := &serveState{
		dir:    dir,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		seed:   1 + rand.New(rand.NewSource(seed)).Int63n(1<<30),
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for _, m := range warmMix {
		req := serve.RenderRequest{Artifact: m.artifact, Format: m.format, Instructions: serveInsts, Seed: s.seed}
		w := warmSpec{req: req, class: m.class}
		if w.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if w.want, err = s.render(ctx, req); err != nil {
			return nil, fmt.Errorf("warming %s/%s: %w", m.artifact, m.format, err)
		}
		s.warm = append(s.warm, w)
	}
	for i := range s.warm {
		if _, err = s.post(ctx, &s.warm[i], s.warm[i].body); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// close stops the listener and drains the server.
func (s *serveState) close() {
	s.ts.Close()
	s.srv.Shutdown(context.Background()) //nolint:errcheck // no work is in flight
	s.client.CloseIdleConnections()
	experiment.ResetCache()
}

// legalCodes maps every error code mcdserve may answer with to its
// HTTP status.
var legalCodes = map[string]int{
	serve.CodeInvalidSpec: http.StatusBadRequest,
	serve.CodeBadRequest:  http.StatusBadRequest,
	serve.CodeNotFound:    http.StatusNotFound,
	serve.CodeOverloaded:  http.StatusTooManyRequests,
	serve.CodeRunPanicked: http.StatusInternalServerError,
	serve.CodeInternal:    http.StatusInternalServerError,
	serve.CodeCancelled:   http.StatusServiceUnavailable,
	serve.CodeDraining:    http.StatusServiceUnavailable,
	serve.CodeRunTimeout:  http.StatusGatewayTimeout,
}

// reply is one completed request.
type reply struct {
	status int
	leader bool
	body   []byte
}

// post sends one render request and checks the reply's status: a 200
// must carry the X-Mcdserve-Flight role, an error must carry a legal
// code with its status. The check on a 200 body is the caller's.
func (s *serveState) post(ctx context.Context, w *warmSpec, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/api/v1/render", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	if r.body, err = io.ReadAll(resp.Body); err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(r.body, &eb) != nil {
			return r, fmt.Errorf("status %d with an unparseable error body", resp.StatusCode)
		}
		if st, ok := legalCodes[eb.Error.Code]; !ok || st != resp.StatusCode {
			return r, fmt.Errorf("illegal error code %q with status %d", eb.Error.Code, resp.StatusCode)
		}
		return r, fmt.Errorf("request refused: %s (status %d)", eb.Error.Code, resp.StatusCode)
	}
	switch resp.Header.Get("X-Mcdserve-Flight") {
	case "leader":
		r.leader = true
	case "follower":
	default:
		return r, fmt.Errorf("200 reply without a flight role")
	}
	if w != nil && !bytes.Equal(r.body, w.want) {
		return r, fmt.Errorf("%s/%s body differs from a direct render", w.req.Artifact, w.req.Format)
	}
	return r, nil
}

// serveOp is one entry of the request sequence.
type serveOp struct {
	class reqClass
	body  []byte
	warm  *warmSpec           // warm classes
	req   serve.RenderRequest // cold classes
	// meet, for a duplicate, releases both clients at once.
	meet *rendezvous
}

// rendezvous releases its two parties together.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func (r *rendezvous) arrive() {
	r.mu.Lock()
	r.arrived++
	if r.arrived == 2 {
		close(r.release)
	}
	r.mu.Unlock()
	<-r.release
}

// dispenser hands the seeded request sequence to the clients. The
// sequence is dealt from shuffled decks of opsPerDeck ops that hold
// every kind exactly as often as its weight, so every run sends the
// same mix; cold specs take their benchmark pairs in turn from a
// seeded permutation of all 17, so every run's cold work covers the
// suite evenly. A duplicate op goes to two clients: the one that draws
// it and the next one to ask. The sequence ends after limit ops, but a
// drawn duplicate is always joined.
type dispenser struct {
	mu      sync.Mutex
	rng     *rand.Rand
	s       *serveState
	limit   int
	drawn   int
	deck    []int // op kinds: an index into warmMix, or coldKind or dupKind
	benches []string
	colds   int64
	pending *serveOp // a duplicate waiting for its second client
	owner   int
	// dups is false with a single client, which has nobody to
	// duplicate a request with.
	dups bool
}

const (
	opsPerDeck = 1000
	coldKind   = -1
	dupKind    = -2
)

func newDispenser(s *serveState, seed int64, limit int) *dispenser {
	d := &dispenser{
		rng: rand.New(rand.NewSource(seed ^ 0x5e17e)), s: s, limit: limit,
		benches: trace.Names(), dups: runtime.NumCPU() >= 2,
	}
	d.rng.Shuffle(len(d.benches), func(i, j int) { d.benches[i], d.benches[j] = d.benches[j], d.benches[i] })
	return d
}

func (d *dispenser) next(client int) (*serveOp, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending != nil && d.owner != client {
		op := d.pending
		d.pending = nil
		return op, true
	}
	if d.drawn >= d.limit {
		return nil, false
	}
	d.drawn++
	if len(d.deck) == 0 {
		for i, m := range warmMix {
			for k := 0; k < m.weight; k++ {
				d.deck = append(d.deck, i)
			}
		}
		for k := 0; k < coldWeight; k++ {
			d.deck = append(d.deck, coldKind)
		}
		for k := 0; k < dupWeight; k++ {
			d.deck = append(d.deck, dupKind)
		}
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	kind := d.deck[len(d.deck)-1]
	d.deck = d.deck[:len(d.deck)-1]
	if kind >= 0 {
		w := &d.s.warm[kind]
		return &serveOp{class: w.class, body: w.body, warm: w}, true
	}
	n := int64(len(d.benches))
	op := &serveOp{class: classCold, req: serve.RenderRequest{
		Artifact: "fig9", Format: "json", Instructions: coldInsts,
		// Seeds above the warm seed are never used by anything else.
		Seed:       d.s.seed + 1 + d.colds,
		Benchmarks: []string{d.benches[(2*d.colds)%n], d.benches[(2*d.colds+1)%n]},
	}}
	d.colds++
	// RenderRequest is plain data, so encoding it cannot fail.
	op.body, _ = json.Marshal(op.req)
	if kind == dupKind && d.dups {
		op.class = classDup
		op.meet = &rendezvous{release: make(chan struct{})}
		d.pending, d.owner = op, client
	}
	return op, true
}

// sample is one completed request.
type sample struct {
	class  reqClass
	spec   *warmSpec // nil for the cold classes
	ms     float64
	leader bool
}

// serveRun is the outcome of one closed-loop run.
type serveRun struct {
	samples []sample
	wall    time.Duration
	shed    int
}

// loop runs runtime.NumCPU() closed-loop clients: each sends its next
// request only after the previous reply. Every request is one op in
// t; a 200 body must equal a direct render of the same spec. Warm
// bodies are checked against references rendered in set-up; cold
// bodies are kept and checked after the timed loop ends, so the
// clients do no checker work inside it.
func (s *serveState) loop(ctx context.Context, d *dispenser, t *tally, tr *tracer, parent int) serveRun {
	var mu sync.Mutex
	var run serveRun
	var colds []coldReply
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				op, ok := d.next(client)
				if !ok {
					return
				}
				if op.meet != nil {
					op.meet.arrive()
				}
				sp := tr.begin("serve request "+classNames[op.class], parent)
				start := time.Now()
				r, err := s.post(ctx, op.warm, op.body)
				lat := time.Since(start)
				tr.end(sp)
				mu.Lock()
				if err == nil && op.warm == nil {
					colds = append(colds, coldReply{req: op.req, body: r.body})
				} else {
					t.op(err)
				}
				if r.status == http.StatusTooManyRequests {
					run.shed++
				}
				if err == nil {
					run.samples = append(run.samples, sample{class: op.class, spec: op.warm, ms: ms(lat), leader: r.leader})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(t0)
	for _, c := range colds {
		want, err := s.render(ctx, c.req)
		if err == nil && !bytes.Equal(c.body, want) {
			err = fmt.Errorf("cold fig9 body differs from a direct render")
		}
		t.op(err)
	}
	return run
}

// coldReply is a cold request's 200 body, kept for the check after the
// timed loop.
type coldReply struct {
	req  serve.RenderRequest
	body []byte
}

// classMS returns the latencies of the given classes.
func (r serveRun) classMS(classes ...reqClass) []float64 {
	var out []float64
	for _, smp := range r.samples {
		for _, c := range classes {
			if smp.class == c {
				out = append(out, smp.ms)
			}
		}
	}
	return out
}

// printSpecs prints the latency spread of every warm spec.
func (r serveRun) printSpecs() {
	bySpec := make(map[*warmSpec][]float64)
	var order []*warmSpec
	for _, smp := range r.samples {
		if smp.spec == nil {
			continue
		}
		if _, ok := bySpec[smp.spec]; !ok {
			order = append(order, smp.spec)
		}
		bySpec[smp.spec] = append(bySpec[smp.spec], smp.ms)
	}
	sort.Slice(order, func(i, j int) bool { return median(bySpec[order[i]]) < median(bySpec[order[j]]) })
	for _, w := range order {
		fmt.Println(spread("  "+w.req.Artifact+" "+w.req.Format, bySpec[w], "ms"))
	}
}

// coldRates is the simulated-instruction rate of every cold request
// that ran its spec (the flight leaders).
func (r serveRun) coldRates() []float64 {
	var out []float64
	for _, smp := range r.samples {
		if (smp.class == classCold || smp.class == classDup) && smp.leader {
			out = append(out, coldCells*coldInsts/(smp.ms/1000))
		}
	}
	return out
}

// serveOpsPerSecond sizes a serve run: it sends this many ops per
// second of the window, rounded to whole decks — about what a busy
// 2-CPU host completes; a quiet one finishes in half the window. A
// fixed op count rather than a deadline keeps the number of cold
// specs, and the memory they leave in the process-wide result cache
// (about 2 MB each), the same on every run, so peak_rss_mb does not
// follow the host's speed.
const serveOpsPerSecond = 40

// runServe measures a closed-loop run of the seeded mix.
func runServe(ctx context.Context, e *env) (map[string]metric, error) {
	s, err := newServe(ctx, e.seed, filepath.Join(e.work, "serve"))
	if err != nil {
		return nil, err
	}
	defer s.close()
	setup := time.Since(e.start).Seconds()
	ops := opsPerDeck * max(1, int(math.Round(serveOpsPerSecond*e.window.Seconds()/opsPerDeck)))
	run := s.loop(ctx, newDispenser(s, e.seed, ops), e.tally, nil, 0)
	all := run.classMS(classFigure, classClassify, classCold, classDup)
	for c := reqClass(0); c < numClasses; c++ {
		fmt.Println(spread("request "+classNames[c], run.classMS(c), "ms"))
	}
	fmt.Println(spread("request all", all, "ms"))
	fmt.Println(spread("cold sim insts/s", run.coldRates(), "1/s"))
	run.printSpecs()
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"sim_insts_per_s": {median(run.coldRates()), "1/s"},
		"p50_ms":          {median(all), "ms"},
		"ops_per_s":       {float64(len(all)) / run.wall.Seconds(), "1/s"},
	}, nil
}
