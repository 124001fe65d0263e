package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// renderKeySeed seeds TestRenderKeyProperties' request generator.
const renderKeySeed = 20

// flightKey is the key a request's render shares a flight under.
func flightKey(t *testing.T, req RenderRequest) string {
	t.Helper()
	spec, err := newRenderSpec(req, time.Minute, time.Minute)
	if err != nil {
		t.Fatalf("%s: %v", reqString(req), err)
	}
	return spec.key
}

// reqString renders req for a failure message: its wire JSON, which
// omits empty lists, plus any list sent empty rather than omitted.
func reqString(req RenderRequest) string {
	blob, _ := json.Marshal(req)
	s := string(blob)
	if req.Benchmarks != nil && len(req.Benchmarks) == 0 {
		s += ` with "benchmarks":[]`
	}
	if req.Schemes != nil && len(req.Schemes) == 0 {
		s += ` with "schemes":[]`
	}
	return s
}

// pick returns one element of xs.
func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// randomRequest draws a valid request over every wire field. Nothing
// is rendered from it, so the budget is unconstrained.
func randomRequest(rng *rand.Rand) RenderRequest {
	arts := experiment.Artifacts()
	a := arts[rng.Intn(len(arts))]
	r := RenderRequest{Artifact: a.ID, Format: pick(rng, "txt", "json")}
	if a.SVG && rng.Intn(3) == 0 {
		r.Format = "svg"
	}
	if rng.Intn(2) == 0 {
		r.Instructions = 1000 + rng.Int63n(100000)
	}
	if rng.Intn(2) == 0 {
		r.Seed = 2 + rng.Int63n(100)
	}
	names := trace.Names()
	for i := rng.Intn(3); i > 0; i-- {
		r.Benchmarks = append(r.Benchmarks, pick(rng, names...))
	}
	for _, s := range experiment.ControlledSchemes() {
		if rng.Intn(3) == 0 {
			r.Schemes = append(r.Schemes, string(s))
		}
	}
	if rng.Intn(4) == 0 {
		r.PIDIntervalTicks = 1 + rng.Intn(5000)
	}
	if rng.Intn(4) == 0 {
		r.FaultIntensity = float64(1+rng.Intn(4)) / 4
	}
	if rng.Intn(2) == 0 {
		r.FaultSeed = rng.Int63n(100)
	}
	if rng.Intn(3) == 0 {
		r.Cores = 2 + rng.Intn(mcd.MaxChipCores-1)
	}
	if rng.Intn(3) == 0 {
		r.PowerCapW = float64(10 + rng.Intn(50))
		r.Governor = pick(rng, "", "integral-gain", "static-split")
	} else {
		r.Governor = pick(rng, "", "none")
	}
	if rng.Intn(3) == 0 {
		r.GovernorGain = float64(1 + rng.Intn(40))
	}
	if rng.Intn(2) == 0 {
		r.TimeoutMS = 1 + rng.Int63n(60000)
	}
	return r
}

// otherArtifact returns the ID of a catalog artifact other than id.
func otherArtifact(rng *rand.Rand, id string) string {
	for {
		if a := pick(rng, experiment.Artifacts()...); a.ID != id {
			return a.ID
		}
	}
}

// respell spells r's defaults the other way: each omitted field is
// made explicit, and each explicit default omitted. It also moves the
// request's own deadline.
func respell(r RenderRequest) RenderRequest {
	switch r.Seed {
	case 0:
		r.Seed = 1
	case 1:
		r.Seed = 0
	}
	if len(r.Benchmarks) == 0 {
		r.Benchmarks = emptyOrNil(r.Benchmarks)
	}
	if len(r.Schemes) == 0 {
		r.Schemes = emptyOrNil(r.Schemes)
	}
	switch {
	case r.PowerCapW > 0 && r.Governor == "":
		r.Governor = "integral-gain"
	case r.PowerCapW > 0 && r.Governor == "integral-gain":
		r.Governor = ""
	case r.Governor == "":
		r.Governor = "none"
	case r.Governor == "none":
		r.Governor = ""
	}
	if r.Cores <= 1 {
		r.Cores = 1 - r.Cores
	}
	r.TimeoutMS++
	return r
}

// emptyOrNil swaps an omitted list for an empty one and back.
func emptyOrNil(xs []string) []string {
	if xs == nil {
		return []string{}
	}
	return nil
}

// TestRenderKeyProperties holds the flight key to the one-spec
// contract over seeded random requests: an omitted field and its
// explicit default share a key, fields that bound only the request or
// feed nothing leave it alone, every field a render reads moves it,
// and requests that share a key render identical bytes.
func TestRenderKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(renderKeySeed))
	def := experiment.DefaultOptions()

	// Each spelling pair sets one field two ways that must key alike.
	spellings := []struct {
		name   string
		a, b   func(*RenderRequest)
		unless func(RenderRequest) bool // the pair does not apply
	}{
		{"instructions", func(r *RenderRequest) { r.Instructions = 0 }, func(r *RenderRequest) { r.Instructions = def.Instructions }, nil},
		{"seed", func(r *RenderRequest) { r.Seed = 0 }, func(r *RenderRequest) { r.Seed = def.Seed }, nil},
		{"cores", func(r *RenderRequest) { r.Cores = 0 }, func(r *RenderRequest) { r.Cores = 1 }, nil},
		{"governor none", func(r *RenderRequest) { r.Governor = "" }, func(r *RenderRequest) { r.Governor = "none" },
			func(r RenderRequest) bool { return r.PowerCapW > 0 }},
		{"governor under a cap", func(r *RenderRequest) { r.Governor = "" }, func(r *RenderRequest) { r.Governor = "integral-gain" },
			func(r RenderRequest) bool { return r.PowerCapW == 0 }},
		{"benchmarks", func(r *RenderRequest) { r.Benchmarks = nil }, func(r *RenderRequest) { r.Benchmarks = []string{} }, nil},
		{"schemes", func(r *RenderRequest) { r.Schemes = nil }, func(r *RenderRequest) { r.Schemes = []string{} }, nil},
		{"fault seed at zero intensity", func(r *RenderRequest) { r.FaultIntensity, r.FaultSeed = 0, 0 },
			func(r *RenderRequest) { r.FaultIntensity, r.FaultSeed = 0, 1+r.FaultSeed }, nil},
		{"timeout", func(r *RenderRequest) { r.TimeoutMS = 0 }, func(r *RenderRequest) { r.TimeoutMS += 1 + rng.Int63n(1000) }, nil},
	}
	// Each change moves one field a render reads, keeping the request
	// valid.
	changes := []struct {
		name string
		do   func(*RenderRequest)
	}{
		{"artifact", func(r *RenderRequest) { r.Artifact, r.Format = otherArtifact(rng, r.Artifact), "txt" }},
		{"format", func(r *RenderRequest) {
			r.Format = map[string]string{"txt": "json", "json": "txt", "svg": "txt"}[r.Format]
		}},
		{"instructions", func(r *RenderRequest) { r.Instructions = def.Instructions + 1 + rng.Int63n(1000) }},
		{"seed", func(r *RenderRequest) { r.Seed = def.Seed + 1 + r.Seed }},
		{"pid interval", func(r *RenderRequest) { r.PIDIntervalTicks++ }},
		{"fault intensity", func(r *RenderRequest) {
			if r.FaultIntensity == 0.5 {
				r.FaultIntensity = 0.25
			} else {
				r.FaultIntensity = 0.5
			}
		}},
		{"fault seed", func(r *RenderRequest) {
			if r.FaultIntensity == 0 {
				r.FaultIntensity = 0.5
			}
			r.FaultSeed++
		}},
		{"cores", func(r *RenderRequest) { r.Cores = 2 + (r.Cores+1)%(mcd.MaxChipCores-1) }},
		{"power cap", func(r *RenderRequest) {
			if r.Governor == "none" {
				r.Governor = ""
			}
			r.PowerCapW += 1 + float64(rng.Intn(20))
		}},
		{"governor", func(r *RenderRequest) {
			if r.PowerCapW == 0 {
				r.PowerCapW = 40
			}
			r.Governor = map[string]string{"": "static-split", "none": "static-split", "integral-gain": "static-split", "static-split": "integral-gain"}[r.Governor]
		}},
		{"governor gain", func(r *RenderRequest) { r.GovernorGain += 1 + float64(rng.Intn(20)) }},
		{"benchmarks", func(r *RenderRequest) { r.Benchmarks = append(r.Benchmarks, pick(rng, trace.Names()...)) }},
		{"schemes", func(r *RenderRequest) {
			if len(r.Schemes) == 0 {
				r.Schemes = []string{string(experiment.SchemePID)}
			} else {
				r.Schemes = r.Schemes[1:]
			}
		}},
	}

	for i := 0; i < 150; i++ {
		base := randomRequest(rng)
		k := flightKey(t, base)
		for _, sp := range spellings {
			if sp.unless != nil && sp.unless(base) {
				continue
			}
			a, b := base, base
			sp.a(&a)
			sp.b(&b)
			if ka, kb := flightKey(t, a), flightKey(t, b); ka != kb {
				t.Errorf("%s: %s and %s key apart", sp.name, reqString(a), reqString(b))
			}
		}
		for _, ch := range changes {
			moved := base
			moved.Benchmarks = append([]string(nil), base.Benchmarks...)
			ch.do(&moved)
			if flightKey(t, moved) == k {
				t.Errorf("%s: %s and %s share a key", ch.name, reqString(base), reqString(moved))
			}
		}
	}

	// Requests that share a key must render identical bytes. Each draw
	// is rendered beside its respelling, every omitted field made
	// explicit and every explicit default omitted, and the draws are
	// confined to few renders at a small budget so that they also
	// collide with each other. A no-op RowFlush makes each render
	// bypass the render memo, so a request sharing an earlier one's key
	// really renders rather than replaying the earlier bytes.
	rendered := make(map[string][]byte)
	first := make(map[string]RenderRequest)
	compared := 0
	for i := 0; i < 24; i++ {
		draw := RenderRequest{
			Artifact:     pick(rng, "fig9", "robustness", "table1", "captransient"),
			Format:       pick(rng, "txt", "json"),
			Instructions: 5000, // enough governor epochs for captransient
			Seed:         pick[int64](rng, 0, 1, 2),
			Benchmarks:   pick(rng, nil, []string{}, []string{"gzip"}),
			Schemes:      pick(rng, nil, []string{}, []string{"adaptive"}),
			Cores:        pick(rng, 0, 1),
			Governor:     pick(rng, "", "none"),
		}
		if rng.Intn(4) == 0 {
			draw.Cores, draw.PowerCapW, draw.Governor = 0, 40, pick(rng, "", "integral-gain")
		}
		twin := respell(draw)
		if flightKey(t, draw) != flightKey(t, twin) {
			t.Errorf("%s and its respelling %s key apart", reqString(draw), reqString(twin))
		}
		for _, req := range []RenderRequest{draw, twin} {
			spec, err := newRenderSpec(req, time.Minute, time.Minute)
			if err != nil {
				t.Fatalf("%s: %v", reqString(req), err)
			}
			spec.opt.RowFlush = func(experiment.RowEvent) {}
			body, _, err := experiment.RenderArtifactContext(context.Background(), spec.artifact, spec.format, spec.opt)
			if err != nil {
				t.Fatalf("%s: %v", reqString(req), err)
			}
			want, seen := rendered[spec.key]
			if !seen {
				rendered[spec.key], first[spec.key] = body, req
				continue
			}
			compared++
			if !bytes.Equal(body, want) {
				t.Errorf("%s and %s share a key but render %d and %d bytes that differ",
					reqString(first[spec.key]), reqString(req), len(want), len(body))
			}
		}
	}
	t.Logf("%d keys over 24 draws and their respellings; %d renders compared against an earlier one", len(rendered), compared)
}

// TestTimeoutClampsWithoutOverflow: a client asking for a deadline
// longer than the server allows gets the server's maximum, however
// many milliseconds it asks for.
func TestTimeoutClampsWithoutOverflow(t *testing.T) {
	const maxTimeout = 2 * time.Minute
	for _, ms := range []int64{3 * 60 * 1000, 10_000_000_000_000, math.MaxInt64} {
		spec, err := newRenderSpec(RenderRequest{Artifact: "table1", Format: "txt", TimeoutMS: ms}, time.Minute, maxTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if spec.timeout != maxTimeout {
			t.Errorf("timeout_ms %d: deadline %v, want %v", ms, spec.timeout, maxTimeout)
		}
	}
}
