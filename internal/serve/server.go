// Package serve is mcdserve's engine room: a fault-tolerant HTTP/JSON
// facade over the experiment harness. One Server owns admission
// control (bounded queue, explicit 429 shedding), cross-request
// single-flight on content-addressed specs, a circuit breaker that
// degrades the disk-cache tier to in-memory-only under I/O failure,
// and graceful drain within a shutdown-grace budget. docs/SERVICE.md
// documents the API, error codes, and degradation ladder.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/flight"
	"mcddvfs/internal/scheme"
)

// maxRequestBytes bounds a render request body; specs are small.
const maxRequestBytes = 1 << 20

// Config tunes one Server. The zero value is usable: memory-only
// caching, GOMAXPROCS-ish worker pool, sane deadlines.
type Config struct {
	// CacheDir enables the disk-cache tier ("" = in-memory only).
	CacheDir string
	// CacheMaxBytes bounds the disk cache (0 = diskcache default).
	CacheMaxBytes int64
	// Workers is the number of concurrent renders (0 = 4).
	Workers int
	// QueueDepth is how many renders may wait behind the workers
	// before cold requests are shed with 429 (0 = 16).
	QueueDepth int
	// DefaultTimeout bounds a request that sets no timeout_ms
	// (0 = 2m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (0 = 10m).
	MaxTimeout time.Duration
	// BreakerThreshold is how many consecutive disk-cache I/O failures
	// open the breaker (0 = 3).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 = 10s).
	BreakerCooldown time.Duration
	// EnableChaos mounts POST /debugz/cache-faults, which injects
	// filesystem faults under the live disk cache. Test and CI use
	// only; never expose it publicly.
	EnableChaos bool
	// Logf receives operational messages (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the service engine. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	gate     *gate
	flights  flight.Group[string, []byte]
	breaker  *breaker
	store    *diskcache.Store // nil: disk tier off
	storeErr error            // why the disk tier failed to open

	baseCtx  context.Context // cancelled to force a drain
	baseStop context.CancelFunc
	drainMu  sync.Mutex     // orders request admission against Shutdown
	wg       sync.WaitGroup // admitted requests still in the render path
	draining atomic.Bool

	chaosMu sync.Mutex
	chaosFS *diskcache.FaultFS
}

// New builds a Server from cfg. An unusable cache directory does not
// fail startup — the server degrades to in-memory-only and reports the
// reason via /api/v1/statusz — but a contradictory configuration does.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		return nil, fmt.Errorf("%w: max timeout %v below default timeout %v", ErrConfig, cfg.MaxTimeout, cfg.DefaultTimeout)
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		gate:    newGate(cfg.Workers, cfg.QueueDepth),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		store, err := experiment.DiskStore(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			s.storeErr = err
			cfg.Logf("mcdserve: disk cache unusable, running in-memory only: %v", err)
		} else {
			s.store = store
			// Every disk-tier outcome of every run against this
			// directory feeds the breaker; misses and self-healed
			// corruption arrive as successes.
			store.SetObserver(s.breaker.record)
		}
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /api/v1/artifacts", s.handleArtifacts)
	s.mux.HandleFunc("GET /api/v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /api/v1/statusz", s.handleStatusz)
	s.mux.HandleFunc("POST /api/v1/render", s.handleRender)
	if s.cfg.EnableChaos {
		s.mux.HandleFunc("POST /debugz/cache-faults", s.handleChaos)
	}
	s.mux.HandleFunc("/", s.handleNotFound)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new work is refused with 503 draining,
// in-flight renders run to completion, and when ctx expires first the
// remaining work is cancelled and Shutdown reports ErrForcedDrain.
// The caller owns the listener (http.Server.Shutdown) — this drains
// the work tier.
func (s *Server) Shutdown(ctx context.Context) error {
	// Setting the flag under drainMu orders it against admission:
	// after it, every new request observes draining and no request
	// can join the WaitGroup, so the wait below only drains.
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseStop()
		return nil
	case <-ctx.Done():
		s.baseStop()
		<-done
		return fmt.Errorf("%w: %v", ErrForcedDrain, ctx.Err())
	}
}

// do runs one request's share of the render for key: refused once the
// server drains, otherwise counted by Shutdown and joined with every
// concurrent request for the same key. The render runs detached from
// any one request; it stops when its last request leaves, or when a
// forced drain cancels it. leader reports whether this request started
// it.
func (s *Server) do(ctx context.Context, key string, run func(context.Context) ([]byte, error)) (body []byte, leader bool, err error) {
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		return nil, false, ErrDraining
	}
	s.wg.Add(1)
	s.drainMu.Unlock()
	defer s.wg.Done()
	return s.flights.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(s.baseCtx, cancel)()
		return run(ctx)
	})
}

// render is the unit of admitted work: one prepared artifact rendered
// under the flight's work context. The spec's options name the disk
// tier whenever the server has one; when the breaker withholds it, the
// render is prepared again without it.
func (s *Server) render(ctx context.Context, spec renderSpec) ([]byte, error) {
	if err := s.gate.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.release()
	p := spec.render
	if s.store != nil && !s.breaker.allow() {
		opt := spec.opt
		opt.CacheDir = ""
		var err error
		if p, err = experiment.PrepareRender(spec.artifact, spec.format, opt); err != nil {
			return nil, err
		}
	}
	return p.Render(ctx)
}

// handleRender answers a render request. A render the memo holds is
// written at once, as the leader of a flight of its own: it takes no
// worker slot, so it is neither admitted nor shed, and only a draining
// server refuses it. Everything else joins the request's flight, whose
// leader is admitted through the gate and renders.
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	var req RenderRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, CodeBadRequest, "decoding render request: "+err.Error())
		return
	}
	spec, err := s.newRenderSpec(req)
	if err != nil {
		writeClassified(w, err)
		return
	}
	if !s.draining.Load() {
		if body, ok := spec.render.Memoized(); ok {
			writeRender(w, spec, body, true)
			return
		}
	}
	// The deadline bounds this request's wait only; the shared render
	// runs on for any other request still waiting on it.
	ctx, cancel := context.WithTimeout(r.Context(), spec.timeout)
	defer cancel()
	body, leader, err := s.do(ctx, spec.key, func(ctx context.Context) ([]byte, error) {
		return s.render(ctx, spec)
	})
	if err != nil {
		writeClassified(w, err)
		return
	}
	writeRender(w, spec, body, leader)
}

// writeRender writes a rendered artifact with its flight role and key.
func writeRender(w http.ResponseWriter, spec renderSpec, body []byte, leader bool) {
	role := "follower"
	if leader {
		role = "leader"
	}
	h := w.Header()
	h.Set("Content-Type", spec.format.ContentType())
	h.Set("X-Mcdserve-Flight", role)
	h.Set("X-Mcdserve-Key", spec.key)
	w.Write(body) //nolint:errcheck // client gone
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyState is the /readyz body: the degradation ladder's current
// rung plus the raw signals behind it.
type readyState struct {
	Status   string `json:"status"` // ok | degraded | overloaded | draining
	Breaker  string `json:"breaker"`
	Running  int    `json:"running"`
	Waiting  int    `json:"waiting"`
	Flights  int    `json:"flights"`
	DiskTier bool   `json:"disk_tier"`
}

func (s *Server) readyState() (readyState, int) {
	state, _ := s.breaker.snapshot()
	running, waiting := s.gate.load()
	rs := readyState{
		Status:   "ok",
		Breaker:  state,
		Running:  running,
		Waiting:  waiting,
		Flights:  s.flights.Len(),
		DiskTier: s.store != nil,
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		rs.Status, status = "draining", http.StatusServiceUnavailable
	case state == BreakerOpen:
		rs.Status, status = "degraded", http.StatusServiceUnavailable
	case s.gate.saturated():
		rs.Status, status = "overloaded", http.StatusServiceUnavailable
	}
	return rs, status
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rs, status := s.readyState()
	writeJSON(w, status, rs)
}

func (s *Server) handleArtifacts(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Formats []string `json:"formats"`
	}
	var out []entry
	for _, a := range experiment.Artifacts() {
		formats := []string{"txt", "json"}
		if a.SVG {
			formats = append(formats, "svg")
		}
		out = append(out, entry{ID: a.ID, Title: a.Title, Formats: formats})
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": out})
}

func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name       string `json:"name"`
		Controlled bool   `json:"controlled"`
		Extension  bool   `json:"extension"`
	}
	var out []entry
	for _, d := range scheme.All() {
		out = append(out, entry{Name: d.Name, Controlled: d.Controlled, Extension: d.Extension})
	}
	writeJSON(w, http.StatusOK, map[string]any{"schemes": out})
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	rs, _ := s.readyState()
	_, trips := s.breaker.snapshot()
	memHits, memMisses := experiment.CacheStats()
	renderHits, renderMisses := experiment.RenderCacheStats()
	st := map[string]any{
		"ready":         rs,
		"breaker_trips": trips,
		"mem_cache": map[string]uint64{
			"hits": memHits, "misses": memMisses,
			"render_hits": renderHits, "render_misses": renderMisses,
		},
		"workers":     s.cfg.Workers,
		"queue_depth": s.cfg.QueueDepth,
	}
	if s.store != nil {
		st["disk_cache"] = s.store.Stats()
	} else if s.storeErr != nil {
		st["disk_cache_error"] = s.storeErr.Error()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleNotFound(w http.ResponseWriter, _ *http.Request) {
	writeErr(w, CodeNotFound, "no such route")
}

// chaosRequest drives the fault-injection debug endpoint.
type chaosRequest struct {
	// Mode is fail (every armed op), fail-next (next N), fail-every
	// (every N-th), or heal.
	Mode string `json:"mode"`
	// N parameterizes fail-next and fail-every.
	N int `json:"n,omitempty"`
	// Ops lists diskcache fault points (default: the write path).
	Ops []string `json:"ops,omitempty"`
}

func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeErr(w, CodeBadRequest, "no disk cache to inject faults into")
		return
	}
	var req chaosRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeErr(w, CodeBadRequest, "decoding chaos request: "+err.Error())
		return
	}
	s.chaosMu.Lock()
	if s.chaosFS == nil {
		s.chaosFS = diskcache.NewFaultFS(nil)
		s.store.SetFS(s.chaosFS)
	}
	ffs := s.chaosFS
	s.chaosMu.Unlock()
	switch req.Mode {
	case "fail":
		ffs.Fail(req.Ops...)
	case "fail-next":
		ffs.FailNext(req.N, req.Ops...)
	case "fail-every":
		ffs.FailEvery(req.N, req.Ops...)
	case "heal":
		ffs.Heal()
	default:
		writeErr(w, CodeBadRequest, "unknown chaos mode "+req.Mode)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":     req.Mode,
		"failing":  ffs.Failing(),
		"injected": ffs.Injected(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}
