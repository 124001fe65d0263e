package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
)

// testInsts keeps simulations fast; specs in this file stay tiny.
const testInsts = 2000

// newTestServer builds a Server (mut tweaks the config) and an
// httptest front end, both torn down with the test.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:          4,
		QueueDepth:       16,
		DefaultTimeout:   time.Minute,
		MaxTimeout:       2 * time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// postRender sends one render request and returns the response.
func postRender(t *testing.T, ts *httptest.Server, req RenderRequest) *http.Response {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/api/v1/render", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBody drains and closes resp.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// errCode decodes the stable error schema.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("response is not the error schema: %v\n%s", err, body)
	}
	return eb.Error.Code
}

// tinySpec is a fast, fully valid render request.
func tinySpec(seed int64, format string) RenderRequest {
	return RenderRequest{
		Artifact:     "fig9",
		Format:       format,
		Instructions: testInsts,
		Seed:         seed,
		Benchmarks:   []string{"epic_decode"},
		Schemes:      []string{"adaptive"},
	}
}

func TestHealthAndReadiness(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var rs readyState
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rs.Status != "ok" || rs.Breaker != BreakerClosed {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, rs)
	}
}

func TestErrorSchema(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name     string
		body     string
		wantCode string
		wantHTTP int
	}{
		{"unknown artifact", `{"artifact":"nope","format":"txt"}`, CodeInvalidSpec, 400},
		{"unknown format", `{"artifact":"fig9","format":"pdf"}`, CodeInvalidSpec, 400},
		{"svg of a table", `{"artifact":"table1","format":"svg"}`, CodeInvalidSpec, 400},
		{"unknown scheme", `{"artifact":"fig9","format":"txt","schemes":["warp"]}`, CodeInvalidSpec, 400},
		{"unknown benchmark", `{"artifact":"fig9","format":"txt","benchmarks":["quake3"]}`, CodeInvalidSpec, 400},
		{"fault intensity range", `{"artifact":"fig9","format":"txt","fault_intensity":2}`, CodeInvalidSpec, 400},
		{"negative instructions", `{"artifact":"fig9","format":"txt","instructions":-1}`, CodeInvalidSpec, 400},
		{"negative pid interval", `{"artifact":"fig9","format":"txt","pid_interval_ticks":-1}`, CodeInvalidSpec, 400},
		{"negative timeout", `{"artifact":"fig9","format":"txt","timeout_ms":-1}`, CodeInvalidSpec, 400},
		{"negative cores", `{"artifact":"fig9","format":"txt","cores":-1}`, CodeInvalidSpec, 400},
		{"cores above chip bound", fmt.Sprintf(`{"artifact":"fig9","format":"txt","cores":%d}`, mcd.MaxChipCores+1), CodeInvalidSpec, 400},
		{"negative power cap", `{"artifact":"fig9","format":"txt","power_cap_w":-1}`, CodeInvalidSpec, 400},
		{"negative governor gain", `{"artifact":"fig9","format":"txt","governor_gain":-1}`, CodeInvalidSpec, 400},
		{"unknown governor", `{"artifact":"fig9","format":"txt","governor":"warp"}`, CodeInvalidSpec, 400},
		{"cap without capping governor", `{"artifact":"fig9","format":"txt","governor":"none","power_cap_w":30}`, CodeInvalidSpec, 400},
		{"baseline-only scheme subset", `{"artifact":"fig9","format":"txt","schemes":["none"]}`, CodeInvalidSpec, 400},
		{"malformed json", `{"artifact":`, CodeBadRequest, 400},
		{"unknown field", `{"artifact":"fig9","format":"txt","turbo":true}`, CodeBadRequest, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/api/v1/render", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != tc.wantHTTP {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantHTTP, body)
			}
			if code := errCode(t, body); code != tc.wantCode {
				t.Fatalf("code = %q, want %q", code, tc.wantCode)
			}
		})
	}

	resp, err := ts.Client().Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 404 || errCode(t, body) != CodeNotFound {
		t.Fatalf("unknown route = %d %s", resp.StatusCode, body)
	}
}

// TestRenderParity is the byte-parity contract: what the service
// serves is exactly what the harness renders (and therefore exactly
// what cmd/experiments -out writes) for the same spec, in every
// format, cold and warm.
func TestRenderParity(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	for _, format := range []string{"txt", "json", "svg"} {
		spec := tinySpec(1, format)
		want, ctype, err := experiment.RenderArtifactContext(
			context.Background(), spec.Artifact, experiment.ArtifactFormat(format),
			experiment.Options{
				Instructions: spec.Instructions,
				Seed:         spec.Seed,
				Benchmarks:   spec.Benchmarks,
				Schemes:      []experiment.Scheme{"adaptive"},
			})
		if err != nil {
			t.Fatal(err)
		}
		for pass, label := range []string{"cold", "warm"} {
			resp := postRender(t, ts, spec)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", format, label, resp.StatusCode, body)
			}
			if got := resp.Header.Get("Content-Type"); got != ctype {
				t.Errorf("%s %s: content type %q, want %q", format, label, got, ctype)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s pass %d: service bytes differ from harness render", format, pass)
			}
		}
	}
}

func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/api/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if !strings.Contains(string(body), `"fig9"`) || !strings.Contains(string(body), `"svg"`) {
		t.Fatalf("artifact catalog incomplete: %s", body)
	}
	resp, err = ts.Client().Get(ts.URL + "/api/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if !strings.Contains(string(body), `"adaptive"`) {
		t.Fatalf("scheme catalog incomplete: %s", body)
	}
}

// TestTimeoutIsPerRequest: two concurrent identical cold renders, one
// with timeout_ms 1 and one with the server default. Whichever leads
// the shared render, the 1 ms deadline ends only its own request; the
// default request gets 200 and the bytes of a solo render.
func TestTimeoutIsPerRequest(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i, hurriedFirst := range []bool{true, false, true, false} {
		spec := tinySpec(int64(100+i), "txt")
		spec.Instructions = 50_000 // long enough that the two overlap
		hurried := spec
		hurried.TimeoutMS = 1
		type reply struct {
			hurried bool
			status  int
			role    string
			body    []byte
		}
		replies := make(chan reply, 2)
		fire := func(req RenderRequest) { // off the test goroutine: no t.Fatal
			r := reply{hurried: req.TimeoutMS == 1}
			blob, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/api/v1/render", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				replies <- r
				return
			}
			defer resp.Body.Close()
			if r.body, err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
			r.status, r.role = resp.StatusCode, resp.Header.Get("X-Mcdserve-Flight")
			replies <- r
		}
		if hurriedFirst {
			go fire(hurried)
			go fire(spec)
		} else {
			go fire(spec)
			go fire(hurried)
		}
		var patient reply
		for j := 0; j < 2; j++ {
			switch r := <-replies; {
			case !r.hurried:
				patient = r
			case r.status != http.StatusOK && r.status != http.StatusGatewayTimeout:
				t.Fatalf("trial %d: the 1 ms request got %d %s", i, r.status, r.body)
			}
		}
		if patient.status != http.StatusOK {
			t.Fatalf("trial %d (hurried first: %v): the default-deadline request got %d %s", i, hurriedFirst, patient.status, patient.body)
		}
		experiment.ResetCache()
		solo := postRender(t, ts, spec)
		soloBody := readBody(t, solo)
		if solo.StatusCode != http.StatusOK || !bytes.Equal(patient.body, soloBody) {
			t.Fatalf("trial %d: shared render differs from a solo render (%d)", i, solo.StatusCode)
		}
		t.Logf("trial %d: hurried first %v, default request was the %s", i, hurriedFirst, patient.role)
	}
}

// TestAdmissionShedding saturates the gate and asserts the next cold
// request is shed immediately with 429/overloaded and a Retry-After
// hint, not queued indefinitely.
func TestAdmissionShedding(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	// Fill the worker slot and the single queue seat out-of-band so the
	// gate state is deterministic (acquire would block on the slot).
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.release()
	s.gate.queue <- struct{}{} // the queue seat a waiting render would hold
	defer func() { <-s.gate.queue }()

	resp := postRender(t, ts, tinySpec(99, "txt"))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", code, CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestGate covers the admission controller's bookkeeping.
func TestGate(t *testing.T) {
	g := newGate(2, 1)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Both workers busy: the third unit takes the queue seat and waits.
	acquired := make(chan error, 1)
	go func() { acquired <- g.acquire(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for !g.saturated() {
		if time.Now().After(deadline) {
			t.Fatal("queue seat never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	// The fourth is shed immediately — no unbounded queueing.
	if err := g.acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire over capacity = %v, want ErrOverloaded", err)
	}
	if running, waiting := g.load(); running != 2 || waiting != 1 {
		t.Fatalf("load = %d running %d waiting, want 2/1", running, waiting)
	}
	// Freeing a slot promotes the waiter.
	g.release()
	if err := <-acquired; err != nil {
		t.Fatalf("promoted waiter got %v", err)
	}
	g.release()
	g.release()
	if r, w := g.load(); r != 0 || w != 0 {
		t.Fatalf("load after drain = %d/%d, want 0/0", r, w)
	}
	// A waiter that gives up returns its queue seat.
	solo := newGate(1, 1)
	if err := solo.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := solo.acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context acquire = %v, want context.Canceled", err)
	}
	if r, w := solo.load(); r != 1 || w != 0 {
		t.Fatalf("load after abandoned wait = %d/%d, want 1/0", r, w)
	}
}

// TestBreakerUnit walks the state machine with a fake clock.
func TestBreakerUnit(t *testing.T) {
	b := newBreaker(3, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	if !b.allow() {
		t.Fatal("closed breaker must allow")
	}
	fault := errors.New("io down")
	b.record(diskcache.OpPut, fault)
	b.record(diskcache.OpPut, nil) // success resets its stream's count
	b.record(diskcache.OpPut, fault)
	b.record(diskcache.OpGet, nil) // a healthy read must not vouch for writes
	b.record(diskcache.OpPut, fault)
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state = %s after 2 consecutive put failures, want closed", st)
	}
	b.record(diskcache.OpPut, fault)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state = %s, want open", st)
	}
	if b.allow() {
		t.Fatal("open breaker must deny before cooldown")
	}
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed: the probe must be allowed")
	}
	if b.allow() {
		t.Fatal("only one half-open probe at a time")
	}
	b.record(diskcache.OpGet, fault) // probe failed: reopen
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state = %s after failed probe, want open", st)
	}
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("second probe must be allowed")
	}
	b.record(diskcache.OpGet, nil)
	if st, trips := b.snapshot(); st != BreakerClosed || trips != 2 {
		t.Fatalf("state = %s trips = %d, want closed/2", st, trips)
	}
}

// TestBreakerDegradesAndRecovers drives the real loop over HTTP: fault
// injection under the live cache opens the breaker (readyz degrades),
// healing plus one probe closes it again, and rendering keeps working
// throughout — in-memory only while open.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheDir = dir
		c.EnableChaos = true
		c.BreakerThreshold = 2
		c.BreakerCooldown = 10 * time.Millisecond
	})

	chaos := func(body string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/debugz/cache-faults", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if b := readBody(t, resp); resp.StatusCode != 200 {
			t.Fatalf("chaos endpoint: %d %s", resp.StatusCode, b)
		}
	}

	// Break the whole disk: reads and writes.
	chaos(`{"mode":"fail","ops":["open","createtemp","write","rename"]}`)
	var seed int64 = 100
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := postRender(t, ts, tinySpec(seed, "txt"))
		body := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("render under faults must degrade, not fail: %d %s", resp.StatusCode, body)
		}
		seed++
		if st, _ := s.breaker.snapshot(); st == BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under persistent disk faults")
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var rs readyState
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rs.Status != "degraded" || rs.Breaker != BreakerOpen {
		t.Fatalf("readyz while broken = %d %+v, want 503/degraded/open", resp.StatusCode, rs)
	}

	// While open, rendering still works (memory tier).
	resp2 := postRender(t, ts, tinySpec(seed, "txt"))
	if b := readBody(t, resp2); resp2.StatusCode != 200 {
		t.Fatalf("render with open breaker: %d %s", resp2.StatusCode, b)
	}
	seed++

	// Heal, wait out the cooldown, and let probes close the breaker.
	chaos(`{"mode":"heal"}`)
	deadline = time.Now().Add(30 * time.Second)
	for {
		time.Sleep(15 * time.Millisecond)
		resp := postRender(t, ts, tinySpec(seed, "txt"))
		readBody(t, resp)
		seed++
		if st, _ := s.breaker.snapshot(); st == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			st, _ := s.breaker.snapshot()
			t.Fatalf("breaker stuck %s after heal", st)
		}
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d %s", resp.StatusCode, body)
	}
	if _, trips := s.breaker.snapshot(); trips < 1 {
		t.Error("breaker trip count not recorded")
	}
}

// TestShutdownDrainsInFlight: a render in flight when drain begins
// finishes and is served; new work is refused with draining.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 4, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var body []byte
	var gotErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, _, err := s.do(context.Background(), "slow",
			func(ctx context.Context) ([]byte, error) {
				close(started)
				select {
				case <-release:
					return []byte("finished"), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
		body, gotErr = b, err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Draining is observable before the in-flight work completes.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	resp := postRender(t, ts, tinySpec(7, "txt"))
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, b) != CodeDraining {
		t.Fatalf("render while draining = %d %s, want 503 draining", resp.StatusCode, b)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
	<-done
	if gotErr != nil || string(body) != "finished" {
		t.Fatalf("in-flight render = %q, %v; want finished, nil", body, gotErr)
	}
}

// TestShutdownForcesAfterGrace: work that outlives the grace budget is
// cancelled and Shutdown reports ErrForcedDrain.
func TestShutdownForcesAfterGrace(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		_, _, err := s.do(context.Background(), "stuck",
			func(ctx context.Context) ([]byte, error) {
				close(started)
				<-ctx.Done() // never finishes on its own
				return nil, ctx.Err()
			})
		errs <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, ErrForcedDrain) {
		t.Fatalf("Shutdown past grace = %v, want ErrForcedDrain", err)
	}
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("stuck work got %v, want cancellation", err)
	}
}

// TestTimeoutClassification: a request whose deadline expires
// mid-simulation comes back 504 run_timeout, not 503 cancelled.
func TestTimeoutClassification(t *testing.T) {
	_, ts := newTestServer(t, nil)
	spec := RenderRequest{
		Artifact:     "fig9",
		Format:       "txt",
		Instructions: 10_000_000, // far more work than the deadline allows
		Seed:         3,
		Benchmarks:   []string{"epic_decode"},
		Schemes:      []string{"adaptive"},
		TimeoutMS:    5,
	}
	resp := postRender(t, ts, spec)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %s, want 504", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != CodeRunTimeout {
		t.Fatalf("code = %q, want %q", code, CodeRunTimeout)
	}
}

// TestConfigValidation: contradictory deadline policy is refused.
func TestConfigValidation(t *testing.T) {
	_, err := New(Config{DefaultTimeout: time.Hour, MaxTimeout: time.Minute})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("New with default > max = %v, want ErrConfig", err)
	}
}

// TestStatusz sanity-checks the operational snapshot.
func TestStatusz(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	resp := postRender(t, ts, tinySpec(5, "txt"))
	readBody(t, resp)
	st, err := ts.Client().Get(ts.URL + "/api/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, st)
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	for _, k := range []string{"ready", "mem_cache", "disk_cache", "workers", "queue_depth"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("statusz missing %q: %s", k, body)
		}
	}
}

// TestStatuszRenderMemo: a repeated request is one render memo miss,
// then one hit, and statusz reports both beside the result memo.
func TestStatuszRenderMemo(t *testing.T) {
	experiment.ResetCache()
	defer experiment.ResetCache()
	_, ts := newTestServer(t, nil)
	memCache := func() map[string]uint64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/api/v1/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			MemCache map[string]uint64 `json:"mem_cache"`
		}
		if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
			t.Fatal(err)
		}
		return snap.MemCache
	}
	var bodies [][]byte
	for i, want := range []map[string]uint64{
		{"render_hits": 0, "render_misses": 1},
		{"render_hits": 1, "render_misses": 1},
	} {
		resp := postRender(t, ts, tinySpec(7, "txt"))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
		got := memCache()
		for k, v := range want {
			if got[k] != v {
				t.Errorf("after request %d: mem_cache %v, want %s = %d", i, got, k, v)
			}
		}
		if _, ok := got["hits"]; !ok {
			t.Errorf("mem_cache %v lost the result memo's counts", got)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("a render memo hit differs from the miss it replays")
	}
}
