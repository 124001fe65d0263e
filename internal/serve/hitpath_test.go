package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcddvfs/internal/experiment"
)

// The render memo answers a request before admission: a hit takes no
// flight, no worker slot and no queue seat. These tests pin what that
// path keeps of the admitted one.

// warmUp renders req once over ts and returns the reply's bytes and
// flight key.
func warmUp(t *testing.T, ts *httptest.Server, req RenderRequest) ([]byte, string) {
	t.Helper()
	resp := postRender(t, ts, req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up render: %d %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Mcdserve-Key")
}

// TestMemoHitMatchesMiss: a render memo hit carries the bytes, the
// content type and the flight key of the miss that filled the memo,
// and reports itself the leader, as that miss did.
func TestMemoHitMatchesMiss(t *testing.T) {
	experiment.ResetCache()
	defer experiment.ResetCache()
	_, ts := newTestServer(t, nil)
	for _, format := range []string{"txt", "json", "svg"} {
		spec := tinySpec(31, format)
		var bodies [][]byte
		var headers []http.Header
		for range 2 {
			resp := postRender(t, ts, spec)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", format, resp.StatusCode, body)
			}
			bodies, headers = append(bodies, body), append(headers, resp.Header)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s: the hit's bytes differ from the miss's", format)
		}
		for _, h := range []string{"X-Mcdserve-Key", "Content-Type", "X-Mcdserve-Flight"} {
			if miss, hit := headers[0].Get(h), headers[1].Get(h); miss != hit || hit == "" {
				t.Errorf("%s: %s %q on the miss, %q on the hit", format, h, miss, hit)
			}
		}
		if role := headers[1].Get("X-Mcdserve-Flight"); role != "leader" {
			t.Errorf("%s: a memo hit reports %q, want leader", format, role)
		}
	}
	if hits, misses := experiment.RenderCacheStats(); hits != 3 || misses != 3 {
		t.Errorf("render memo %d hits / %d misses over three formats, want 3 / 3", hits, misses)
	}
}

// TestMemoHitBypassesFullGate: with every worker slot and queue seat
// taken, a request the memo holds is still answered, while a cold one
// is shed as TestAdmissionShedding's is.
func TestMemoHitBypassesFullGate(t *testing.T) {
	experiment.ResetCache()
	defer experiment.ResetCache()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	warm := tinySpec(32, "txt")
	want, key := warmUp(t, ts, warm)

	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.release()
	s.gate.queue <- struct{}{}
	defer func() { <-s.gate.queue }()

	resp := postRender(t, ts, warm)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) || resp.Header.Get("X-Mcdserve-Key") != key {
		t.Fatalf("memo hit behind a full gate = %d, key %q (%d bytes), want 200, key %q (%d bytes)",
			resp.StatusCode, resp.Header.Get("X-Mcdserve-Key"), len(body), key, len(want))
	}
	resp = postRender(t, ts, tinySpec(33, "txt"))
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != CodeOverloaded {
		t.Fatalf("cold request behind a full gate = %d %s, want 429 overloaded", resp.StatusCode, body)
	}
}

// TestMemoHitRefusedWhileDraining: a draining server refuses a request
// the memo holds as it refuses every other, with 503 draining.
func TestMemoHitRefusedWhileDraining(t *testing.T) {
	experiment.ResetCache()
	defer experiment.ResetCache()
	s, ts := newTestServer(t, nil)
	warm := tinySpec(34, "txt")
	warmUp(t, ts, warm)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postRender(t, ts, warm)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != CodeDraining {
		t.Fatalf("memo hit while draining = %d %s, want 503 draining", resp.StatusCode, body)
	}
	if hits, _ := experiment.RenderCacheStats(); hits != 0 {
		t.Errorf("a refused request counted %d render memo hits", hits)
	}
}

// catalogKeys pins, for every catalog artifact and format, the flight
// key of a request left at every default and of one that sets every
// option a key reads: the keys the server derived before requests were
// prepared once for both the memo lookup and the render. The plain
// column hashes a single core's key tail, with its defaults (one core,
// no cap, the "none" governor) spelled out as in every cache key.
var catalogKeys = []struct {
	artifact, format string
	plain, narrowed  string
}{
	{"table1", "txt", "37bee66ff60be8cba0c395020aac5c95ea0f24e973d482464efd40ab4a0f1e9d", "6e04960b8cb3baa22011704366ca5ae15b0ebae7ffda8699b7c177e5974bbba4"},
	{"table1", "json", "0cc2cb948d8a8ddb02de825d10cebb072fa7f0081b86e18d2e219c05c7be7f4c", "ff78a62901a4e1cc69a4fe36df3117fd3dca017cebb5c59af6fe141617f17201"},
	{"table4", "txt", "461e4ca46c7b8b877fc853f62dcef8b84494ca97460857d58d8204cda20b4526", "b3151a0675cc8737bf8016df585d9f5a205f85dd807695e7c573fcfbc32771b5"},
	{"table4", "json", "8353ca3c1b9ff0b90550fa10757d1ac8c5c7728d2cc5a773347531bac4bc414f", "e0b1b6d7fde8ddc0b6bdd99e96c5a4a00cd16b775994b15e151dc1c376bb1a6e"},
	{"remarks", "txt", "402dab80f7a2c48d4d1425ca54e369f6932b39e59644e809fc8c7b651968d311", "0aa28e63e200ffab0101ef0bbaf514d6331fa71ebb2ce30a3790c9aa5f5f904e"},
	{"remarks", "json", "9163a6f5ba1ab64d9019513d18ba18de5e2db43ec754dd0d8dd4204a93a88176", "c7d91b3f46dc6ffe60e6285d2da22412522fa5e83283658d42002a3dd0d170d3"},
	{"table2", "txt", "041b3a1baa1257ec08beb9a8f39134d007dfadc65e951deeda57782709ca437c", "e14000ddd694750a5957e8360717c5f6c51ccf5d3feb8065814195cb3d1a787f"},
	{"table2", "json", "384d8c34544ca8b05f8e7181e535fca37c28a01ec1a84befc5fecd0d22b09148", "2e65cf89316b86ff9b2040c28bfe6914226930ca759e338ecb81c6c4d4a2ee6e"},
	{"fig7", "txt", "023676c7f8b1740c53fd121bb081ce8d80d10266b3fb12c78950ce0a4e57a1ee", "7a6ed636a2b0a6ca184c138f93a057facc0d098414b220c392ef5a0257c4b483"},
	{"fig7", "json", "39382dde21e77218dbb4c3ea7d7ddbf57a35dd83498c77cb8fc2e95ab0894674", "8055219125a715ce19e028d0030ab3c352c4fda2a9f73e6274db06cdee6ddf1c"},
	{"fig7", "svg", "131ea570e100890ee94b0d6220fbda2cfe28456904b2b5ad1bc3df626a7ffcc1", "6f812772f76c4bbadfa61527d564b344555ef0667e83cf95df92c671b47e8b39"},
	{"fig8", "txt", "ceabf77f2a81bb006bc69a7c3941a47d9f46a1eca4c0884059f2efaf5cc6f7c2", "bd7bd89189058f98ed4a839739b8dd785ad09afa6537e08436a6f4addbd23dec"},
	{"fig8", "json", "456407e14954ac0af003626e98a52fdd975afe5e88c512aca12d310af33f004b", "f40fe8d0dabb7cfbe1e01ba402772b60415f9262cec1137edee3ede78f26447b"},
	{"fig8", "svg", "5d5d5da126a385c621c7fb08461cdcb0d912b2ecce5eccdac357cef7b4e9adc7", "02ca8e71bed2ed3a6c27da10efa791ea74180de9cec5ffcc5558b6d8acfde33a"},
	{"fig9", "txt", "7e993e7c299f0ec6a329765d38318eae3d2dc4ef7b4cff2dc6b49deb9fc0ebc5", "1094bb8e6f814860055601b6e16f41f4208e287467bac63151cc3b12cca6b1e8"},
	{"fig9", "json", "3725dd9d3a3322d7885307b2350695e110b77646fb13c2b016a86368d7f72b5b", "6d81bab4165ce52bb13e5cac13e2b93f7df85dd8218687258540c3a85e36d045"},
	{"fig9", "svg", "6bbc4dc7dd109b57afc89803e6eb3ede990ecdb69e6ac747779918a677f0c2fc", "f9f1a7cdf9e59461f77cab462f4bcae64fb48d41d5ecc2c862047f831625bf31"},
	{"fig10", "txt", "4d9ec093ed7f502f272d01d57201ff4ce5aaa2b597cf49355ed1416bea321d1f", "07efba641dfbb2dd0068b32b6b868214083d494606359d5aac40c7db6e6353c7"},
	{"fig10", "json", "26b69f94baf316b39edec6ca38324076d77661c3b00369682bc85024ec317712", "5c6af81a4e8c6830b14530c3aaf027e34ea1d1b8599749e82a35a8e7e2f23c9b"},
	{"fig10", "svg", "31206593b4de33925f7a406219a58ae607f1a8d4a7353aaecc111348ed4e0968", "419bc0413a95a8b7d3835df1ae0ecaff06f5b428f84cc78203ddb65f3e3ba719"},
	{"fig11", "txt", "f6ace467cae0a6f654c2e12df8b3a83a14d2154b20b3c0d064e4a99a638a2548", "52f05bb8791e3ec4a0a9300036866a506351e399921bd5be1810f2546f726763"},
	{"fig11", "json", "324c9f7ef46385e3e10ee51dc85ea950309b3e8e4a52e74831386e83c2756ee2", "dfa24bd9c7f1ba27b1a10360fa0b2dfc6bae9a316697d53c8d7dcf36afba4c8d"},
	{"fig11", "svg", "665633f067ddfb073cdfd24d337f4294b3cbee01305c28ffeeb4db446d8883c9", "ccf1295b4da70efbe3c6c2198a4209f29111a6fab118bc606460f28c9190069e"},
	{"summary", "txt", "1701b86daba7069a74b861000a477edd67a7190bf4dae9556582bc7c9c006626", "5b0380582cc5adb7697e5190769df14547e5ceecc5858865157ef61bd1b15e62"},
	{"summary", "json", "f7deac828dc8add04e828e5a964a8028fd74081d49145d439320b300c1746206", "0fe19a722b833009bea194333ff5085f9bb8c90063bb306b4d59130007b1bba6"},
	{"table3", "txt", "75d50c6f01f808ddb70520f8aa352464acd0b48dc2fcaad160831188194fd6c0", "cfe211b4f2186fc38aa41b7982a6705a1db3a672f7386d739536733699d36251"},
	{"table3", "json", "dec230951b95675a71c2b2712276f3ebafd1a0847c3322a06c89a2c017d506e1", "209008681cef82a9d6acdd57fa375e641eea50107a6638ceb4779f17790f4eda"},
	{"ablation", "txt", "4968c8b7e4e1599cc993a3409d5588438c846d50fd893c760c3c657fd3d3d1ef", "adcb55cfe9c8801706eaa84c4b0b90342a5a17740b4c7d3c4cbf28695ef86d57"},
	{"ablation", "json", "9e7655666f3b50299cc362dc3c1a7f47fa0daef35c18304d3037ad2acc02c333", "b0559a9733131f80fa97a496c18c990909fba53f93f4b66a0c114a68f78f0370"},
	{"transitions", "txt", "e9a01ae2c5b9a87b18b437ca9f76274fc9d13190b97824052e9a57a61bac0c1b", "7a314e48019b5767ede7d7fa1b47ee7d09c1f0301fcee14165dfc2a759740e8b"},
	{"transitions", "json", "993a1f0a86eb76f2eac77d8aa69d7746674d23005c78945dc1a7626c8a5f7074", "0e598d76bd7b68504c4e3c8d9078c87d900e0034876fd047439eb016a1a17fb4"},
	{"global", "txt", "7750727f90408df62a20d486908b9adfb182d38ca0c80616aec9338151017f02", "7f5f5726327edfbf9c24f6f809fad438447b36f0c7d8096b4484a1f646847fe3"},
	{"global", "json", "24430270193be0f1f8c4f7059cf9d609fcce49e1209491b8ff21d23175c6476e", "dfb5ea49b478dbdfe9f510bab0406b1ede8b94a231bdb44141e9df880d35fdb7"},
	{"qref", "txt", "3f8947a6d7e140e84573e3abefcdf3c94a71756972e307aa4d80a26459b1abc5", "fd649de54d0091bb1c4818320c96251724e8f61946172fea9b9012b28133421e"},
	{"qref", "json", "39c44b3dcbb89a272e23ac08d8fd24a5a5a6c6575c1af2e6b775fbde042de590", "8cbac01eca8564622fb292ff40c579b8842aec066fbad5a6473154af753385a6"},
	{"interfaces", "txt", "989eb9436689a40daf8da4315c27db22f0a1a7b20da4f8098e83fc66ad0672f3", "d75362446e91adfe52946a20e6bcecfa7f334fb9ae52555260ce4c46f82e663b"},
	{"interfaces", "json", "2f5f9a497c676a19886e5a3a55f262305d7edd261d77d6e6ca1b597f0070cd5d", "4c2a9fe52a93afc6d156d73ac36bae9a1fe19e82f0256fe149f5ef9215f38c86"},
	{"partitions", "txt", "893d83680498e8bfb90a183cb1ac52ec1432a47742b20ec54986da82648c773a", "e083762bcb25a5529e10814538a22a844d8d00c4197cd016b2dfcd078eeae52c"},
	{"partitions", "json", "3970cb17fa9d2788f5ff468d3ac4a6c3c17d2c3386ea60e478a670f43302cea1", "ac1345d3cffed123eef95bbacacccd2a4049d13680c6cff6a82bdcefe430c6a6"},
	{"delays", "txt", "b2824fb8905afce5664c1bf230677973b042bad6d24ab8d646c3228562374a8b", "90dd933c540ca30d36709dc320e9acac43ed10233dd2aad757e7fff4cb56f3f8"},
	{"delays", "json", "b828ff97767cb1f1ecc946ea81dbe82712ab877cac72d7f245c173ba86c36045", "218828876aa75df0141cc61bcca73568818ec3459fafd2a5712a78d001ecf5e4"},
	{"seeds", "txt", "d6131f5b60ee88390d2844d2ef87ef7dc6a7aac3ce2f2acaf7472860edd0b58d", "e1dbe52d3e83f99c453a6a4e84cbd2188b34405258c8dc7cbd90fae47fb47541"},
	{"seeds", "json", "77eaca9b53a9579b190451d73d7414bf057b489ec8abf06e6592c452cfc69a63", "0f8f8f126033135275662fefb7b6e85cf0f5f97eef82d819b335ef9884df8237"},
	{"robustness", "txt", "3ba3ddae91adeedd3e5685a3f8ac928ac313edcb204bf297fe0854100b167255", "5787ec9fe865d79c2b1c32d6aa577927ed0233b40af5b803b923ac61a1332f39"},
	{"robustness", "json", "6c887ef7455264121632b9ec9f08874b45201c69f293fe929ac84a9986c07299", "49ebe715fbcdfd66a3299b42f49eae37360b0bf5fb91b9a6d38a5600bb045c7e"},
	{"capsweep", "txt", "ba0f41a3706507056be4cd2e5f9b5aa862fa0eb63fe8b134371cc86c6625b331", "b8e5de5f773d37a98a032159b6014713c1636ab94b0c1ee6ca677ce2297f54c2"},
	{"capsweep", "json", "343d55c1e7d7f56b204758883df87e501696ae07d51690b20b9760b1ea258360", "a3115149ca1067d44b1d784420023b14051acca7c2070d909b99bc22fccb6143"},
	{"capsweep", "svg", "294d6e5c8285829d2f9ef3c25418de4046de4bf54d89c0ee848a33ac981f22cd", "c2d4f0c101a403de838a8e57e5071e3c9b89a398849f5a17ac165d5f6891a1f5"},
	{"captransient", "txt", "b408d918d944e671405fba910fed04b00325ef2f122a0413bd8b8fb1e049bb64", "f22a6a5e3f8021208a1440dcb6660a909d4f7275af1672f670b2c7c4c00692fc"},
	{"captransient", "json", "823b9d488b6e16599b51899ac10719f1d14249fba448505e00babdafb0dd282e", "6c18069630a2ad74cfa86d1f2711295087c0d72be3f13496289da366ca406631"},
}

// TestCatalogKeysUnchanged: every artifact and format keys as
// catalogKeys pins, through the server's prepared render and through
// experiment.PrepareRender alike, and the pinned table covers the
// catalog.
func TestCatalogKeysUnchanged(t *testing.T) {
	formats := 0
	for _, a := range experiment.Artifacts() {
		formats += 2
		if a.SVG {
			formats++
		}
	}
	if len(catalogKeys) != formats {
		t.Fatalf("catalogKeys pins %d renders, the catalog has %d", len(catalogKeys), formats)
	}
	for _, c := range catalogKeys {
		for _, tc := range []struct {
			req  RenderRequest
			want string
		}{
			{RenderRequest{Artifact: c.artifact, Format: c.format}, c.plain},
			{RenderRequest{Artifact: c.artifact, Format: c.format, Instructions: 25000, Seed: 7,
				Benchmarks: []string{"gzip", "epic_decode"}, Schemes: []string{"adaptive"},
				Cores: 2, PowerCapW: 40, GovernorGain: 3}, c.narrowed},
		} {
			spec, err := keyServer.newRenderSpec(tc.req)
			if err != nil {
				t.Fatalf("%s.%s: %v", c.artifact, c.format, err)
			}
			if spec.key != tc.want {
				t.Errorf("%s: prepared key %s, want %s", reqString(tc.req), spec.key, tc.want)
			}
			p, err := experiment.PrepareRender(spec.artifact, spec.format, spec.opt)
			if err != nil {
				t.Fatalf("%s: PrepareRender: %v", reqString(tc.req), err)
			}
			if k, err := p.Key(); err != nil || k != tc.want {
				t.Errorf("%s: PrepareRender key %s, %v, want %s", reqString(tc.req), k, err, tc.want)
			}
		}
	}
}
