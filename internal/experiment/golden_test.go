package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"mcddvfs/internal/mcd"
	"mcddvfs/internal/queue"
)

// goldenCell is one run of the result-digest grid: a benchmark under a
// scheme, optionally on a modified machine or a capped chip.
type goldenCell struct {
	name    string
	bench   string
	scheme  Scheme
	machine func(*mcd.Config)
	cores   int
	capW    float64
}

// goldenDigests pins the SHA-256 of each cell's ChipResult entry
// encoding (MarshalParts head, then tail) at 20,000 instructions,
// seed 1. The differential tests hold the event core to its own
// sleepless self, so a change in what the simulator computes — issue
// order, a latency, a meter's float stream — passes them; it does not
// pass this. A deliberate change to the model or the codec re-pins
// these and says why.
var goldenDigests = map[string]string{
	"adpcm_encode/none":                        "10c8d5770786ba6e6bc83bb49b3988db16e4171eb48aa4044e62e4cb051ebf4e",
	"adpcm_encode/adaptive":                    "4894f6a3b5c7ec2b3a5dc7b8d625dc7c9a3dbb1ca4707901c591822cc179d159",
	"adpcm_encode/pid":                         "b5264d7c20e82e8331172c3ec798f3064c9d02351d37a8c8793a1072fc25247a",
	"adpcm_encode/attack-decay":                "f3090ad721b2013772775120aa4792fc51ce73b110611098b09b2f9ffb3b0bd6",
	"gzip/none":                                "2f1f928af8879df95ab4633e530b8036b41ca092c2b0830251bf33e814cd2bf5",
	"gzip/adaptive":                            "738fbe79dd4116d827c71df2e76f7b2ec94489e9f2086ffb1d64ec2fd39000ae",
	"gzip/pid":                                 "31d7bf04d3920565e64a2dbd0fbe5e902a9104d8ee28587790e815c0b4c51a62",
	"gzip/attack-decay":                        "bba54b8fa59f520898c1b98329064be83797aef405b5cf5c5ab6b43caf251e1b",
	"epic_decode/none":                         "8ad67b5e55d852208d7192e1cfbaa246345dc0dff6c06ec2aa50e7ca3c6461fa",
	"epic_decode/adaptive":                     "6415fc7956344f091e04375cab89fe81b05a11542033f9a73d98888155a81115",
	"epic_decode/pid":                          "30d021602c31c2ad30158085e5878d145b1978c0db183ff393b56dbd570302e4",
	"epic_decode/attack-decay":                 "e345039c35add887db0be230f418989f440d7d2991f914f0043ede2a1a394c13",
	"swim/none":                                "d7136bee0184b4b18d5ee2605fbd51961ab7c161636d1159c8d057d69145fe7e",
	"swim/adaptive":                            "af6e3728465c270098914276ec9c90370508e71446d532eebbfb2c166f9faa8b",
	"swim/pid":                                 "113fea2d4a23ac1ce1c699471b2c638c14bc6f9caab9c2f6c6efeade73973c94",
	"swim/attack-decay":                        "e1cf89bdc9bbaafe564520b169008137a46834c3ab8c02fe9588d8d86f85e6de",
	"epic_decode/adaptive/token-ring":          "b121e30ee4957d92eb9b4d6a5530231087e0569d286f6ad9e70aeed8e9dffb6d",
	"epic_decode/adaptive/split-front-end":     "20e646607f203e1e7ef9add29f040b54817d63440efebced3464d04415a40046",
	"epic_decode/adaptive/deep-sleep":          "e611ea183e1bdcbe1364ef3c20d2684d8eaf4f704f249f96ee2c40b3e630481e",
	"epic_decode/adaptive/prefetch":            "0f8d6d42bd2906736edcb4ace045dc13a915982dfd48d01e6ff239f911cdad5f",
	"epic_decode/adaptive/no-store-forwarding": "d98380f5c943e243a39823b6377fc34162cee39ea6697c07da268223ff679ad2",
	"chip4/adaptive/cap30":                     "9fa8b9957ca6197925eb4470a2e2c48c83ea03825ed598f5b664d691edc7b738",
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, b := range []string{"adpcm_encode", "gzip", "epic_decode", "swim"} {
		for _, s := range []Scheme{SchemeNone, SchemeAdaptive, SchemePID, SchemeAttackDecay} {
			cells = append(cells, goldenCell{name: b + "/" + string(s), bench: b, scheme: s})
		}
	}
	variant := func(name string, m func(*mcd.Config)) goldenCell {
		return goldenCell{name: "epic_decode/adaptive/" + name, bench: "epic_decode", scheme: SchemeAdaptive, machine: m}
	}
	return append(cells,
		variant("token-ring", func(c *mcd.Config) { c.SyncPolicy = queue.SyncTokenRing }),
		variant("split-front-end", func(c *mcd.Config) { c.SplitFrontEnd = true }),
		variant("deep-sleep", func(c *mcd.Config) { c.DeepSleep = true }),
		variant("prefetch", func(c *mcd.Config) { c.Prefetch = true }),
		variant("no-store-forwarding", func(c *mcd.Config) { c.StoreForwarding = false }),
		goldenCell{name: "chip4/adaptive/cap30", scheme: SchemeAdaptive, cores: 4, capW: 30},
	)
}

// TestResultDigestGolden runs the grid on a fresh harness and compares
// each result's encoding with its pinned digest.
func TestResultDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a multiply-add into one FMA
		// and round differently (ROADMAP: bit-identical on every
		// architecture).
		t.Skip("digests are pinned for amd64 floating point")
	}
	cells := goldenCells()
	if len(cells) != len(goldenDigests) {
		t.Fatalf("%d cells, %d pinned digests", len(cells), len(goldenDigests))
	}
	h := NewHarness()
	for _, c := range cells {
		opt := Options{Instructions: 20000, Seed: 1, Harness: h, Cores: c.cores, PowerCapW: c.capW}
		if c.machine != nil {
			m := mcd.DefaultConfig()
			c.machine(&m)
			opt.Machine = &m
		}
		var benches []string
		if c.bench != "" {
			benches = []string{c.bench}
		}
		res, err := RunChipContext(context.Background(), benches, c.scheme, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		head, tail, err := res.MarshalParts()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.New()
		sum.Write(head)
		sum.Write(tail)
		got := hex.EncodeToString(sum.Sum(nil))
		if want := goldenDigests[c.name]; got != want {
			t.Errorf("%s: result digest %s, want %s", c.name, got, want)
		}
	}
}
