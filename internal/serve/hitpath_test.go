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
// option a key reads: the keys RenderKey derived before requests were
// prepared once for both the memo lookup and the render.
var catalogKeys = []struct {
	artifact, format string
	plain, narrowed  string
}{
	{"table1", "txt", "93ed1ca75e73c7bc7d879252122780380b7e8f9e5bf0f6cb52781a62ed038d1c", "6e04960b8cb3baa22011704366ca5ae15b0ebae7ffda8699b7c177e5974bbba4"},
	{"table1", "json", "46f348698580a00a97dfbdf4d6329267f9cd5cb6f645a03b491154c01df4897a", "ff78a62901a4e1cc69a4fe36df3117fd3dca017cebb5c59af6fe141617f17201"},
	{"table4", "txt", "27243710f5ca5a6e345f85f91bcbb5adec7616b5f1e5ae1a739bebf04f294864", "b3151a0675cc8737bf8016df585d9f5a205f85dd807695e7c573fcfbc32771b5"},
	{"table4", "json", "0167f4810ce75755f7542c699d605376eb9eb4d29893b40562b85cc6a0ff995e", "e0b1b6d7fde8ddc0b6bdd99e96c5a4a00cd16b775994b15e151dc1c376bb1a6e"},
	{"remarks", "txt", "5d8581c260be5962bc1ef75a97dd6143ea765edd7baa858b2edf2162b8db2532", "0aa28e63e200ffab0101ef0bbaf514d6331fa71ebb2ce30a3790c9aa5f5f904e"},
	{"remarks", "json", "add8ab40753c2d7815ea3e39e8b1086ce4238ba4f112bf599dd8010ebd94fbab", "c7d91b3f46dc6ffe60e6285d2da22412522fa5e83283658d42002a3dd0d170d3"},
	{"table2", "txt", "a0f81a6fc3ae44420fcff1d1e200fb09f2d27d41f5e9ac4217e6446f4fb8d46a", "e14000ddd694750a5957e8360717c5f6c51ccf5d3feb8065814195cb3d1a787f"},
	{"table2", "json", "4852d2ec60b93f5f293ffe8b3babbcd36887447cfa808d21c1d0f2506c76fe5b", "2e65cf89316b86ff9b2040c28bfe6914226930ca759e338ecb81c6c4d4a2ee6e"},
	{"fig7", "txt", "30d84923c990e4a6e7ee77cb12735cef1097ba3b04a5bd0dca0159853f63da01", "7a6ed636a2b0a6ca184c138f93a057facc0d098414b220c392ef5a0257c4b483"},
	{"fig7", "json", "55dc3585c6dd6e21a0e520242149f4a275311d883e9ac6ca2c66b4ea2c34864e", "8055219125a715ce19e028d0030ab3c352c4fda2a9f73e6274db06cdee6ddf1c"},
	{"fig7", "svg", "b5d008887574b027f5d96a5efbe56ec965eb760b9a5ba0a20c52d5884e4edcad", "6f812772f76c4bbadfa61527d564b344555ef0667e83cf95df92c671b47e8b39"},
	{"fig8", "txt", "edd3ecbb7d8bec80eeeda63c91b5c474233625149292d9ad6a15df9ca6cd59fb", "bd7bd89189058f98ed4a839739b8dd785ad09afa6537e08436a6f4addbd23dec"},
	{"fig8", "json", "d57d7ba88ebd91384b099b62b7e8fbff3f24d9ee5961eb7f87b13a6e4a3894b0", "f40fe8d0dabb7cfbe1e01ba402772b60415f9262cec1137edee3ede78f26447b"},
	{"fig8", "svg", "10e9e5dd260af9c5b160b7dffdf4ac92decee31643bb9ba464ec76d1d200298f", "02ca8e71bed2ed3a6c27da10efa791ea74180de9cec5ffcc5558b6d8acfde33a"},
	{"fig9", "txt", "e06c275836558107d2a7b21764411c06880af137733d269f96c548ea9f689f6b", "1094bb8e6f814860055601b6e16f41f4208e287467bac63151cc3b12cca6b1e8"},
	{"fig9", "json", "cde69519374e663662884fec659de470f6f6eaa51dfc9396265147a3e0fdbb90", "6d81bab4165ce52bb13e5cac13e2b93f7df85dd8218687258540c3a85e36d045"},
	{"fig9", "svg", "534e1cd302797d528a06aa761cfc2dbc346b8c04a7e3133edad75ff3925c6e2d", "f9f1a7cdf9e59461f77cab462f4bcae64fb48d41d5ecc2c862047f831625bf31"},
	{"fig10", "txt", "b9fe7743ccdf313e2971351c2e3d90c397ce68d684717362137fbac6043d8b3a", "07efba641dfbb2dd0068b32b6b868214083d494606359d5aac40c7db6e6353c7"},
	{"fig10", "json", "388cf17c5f573e48167ef97416f4d5b82137e0c36b577a3e796b2238490a229b", "5c6af81a4e8c6830b14530c3aaf027e34ea1d1b8599749e82a35a8e7e2f23c9b"},
	{"fig10", "svg", "b633e57f91633864e23fde0f3312e0c29615f5a1c2894e00306492b0b01148ed", "419bc0413a95a8b7d3835df1ae0ecaff06f5b428f84cc78203ddb65f3e3ba719"},
	{"fig11", "txt", "1aebdba99215ceb95a2610d10aa53d8968fe94e95b533d938a6245ee802826ad", "52f05bb8791e3ec4a0a9300036866a506351e399921bd5be1810f2546f726763"},
	{"fig11", "json", "067d61b29d19320eb1afb6cd4396df6b2e3b5db9b434584434d661f64491b285", "dfa24bd9c7f1ba27b1a10360fa0b2dfc6bae9a316697d53c8d7dcf36afba4c8d"},
	{"fig11", "svg", "d6017264c76b49a40744636c779bb9703fd4e181f0a79246f46d3361468002a7", "ccf1295b4da70efbe3c6c2198a4209f29111a6fab118bc606460f28c9190069e"},
	{"summary", "txt", "363e874eeba05b52c3695ac475c495d807db755f4489e48d88838dc56090bb73", "5b0380582cc5adb7697e5190769df14547e5ceecc5858865157ef61bd1b15e62"},
	{"summary", "json", "bf8cbdad969d5424ecf3a5733c2ac7fb80b6299cd017796b75928e721d7effee", "0fe19a722b833009bea194333ff5085f9bb8c90063bb306b4d59130007b1bba6"},
	{"table3", "txt", "d0fab96aeda8ae9c8a49d400a78249b5c8042e39f72158a9fd78acafdd91ca17", "cfe211b4f2186fc38aa41b7982a6705a1db3a672f7386d739536733699d36251"},
	{"table3", "json", "2457c5969e53a88822c27bec88646d4db88d873894d3233ad18273ee719e26ac", "209008681cef82a9d6acdd57fa375e641eea50107a6638ceb4779f17790f4eda"},
	{"ablation", "txt", "ac54de617dcb6296c95fe813c19e3df432feda910e1f37b192033a64a1351e3e", "adcb55cfe9c8801706eaa84c4b0b90342a5a17740b4c7d3c4cbf28695ef86d57"},
	{"ablation", "json", "ee57fe68b9d42be6dcd3042f1a9264f249fea6ed949b8d39f6b1c23d58f031ae", "b0559a9733131f80fa97a496c18c990909fba53f93f4b66a0c114a68f78f0370"},
	{"transitions", "txt", "cdff9e3d6b84c79b59287cde290e8ef539a497a9133d8b9c55d20a14269c794b", "7a314e48019b5767ede7d7fa1b47ee7d09c1f0301fcee14165dfc2a759740e8b"},
	{"transitions", "json", "5655057e505221a177558325faf51929ca95d6a040367db22ca206395b2699e6", "0e598d76bd7b68504c4e3c8d9078c87d900e0034876fd047439eb016a1a17fb4"},
	{"global", "txt", "0dbb7907c68993af1a8767f0a15fb6fbfcad82d0a8d47bf29b7a730a47b33c33", "7f5f5726327edfbf9c24f6f809fad438447b36f0c7d8096b4484a1f646847fe3"},
	{"global", "json", "6e4b18e6c73fed8dfad613a523e2930a200afb85a49682cc3b7d56875b0f4adb", "dfb5ea49b478dbdfe9f510bab0406b1ede8b94a231bdb44141e9df880d35fdb7"},
	{"qref", "txt", "090c30eaabd3410d1f66b4375c53db76469be20bf3edbd81f1beb42f3bf87ad8", "fd649de54d0091bb1c4818320c96251724e8f61946172fea9b9012b28133421e"},
	{"qref", "json", "d14dcbccbd26c116f984fc7b7415523d465e5f69059adb68334e693bb7d060f6", "8cbac01eca8564622fb292ff40c579b8842aec066fbad5a6473154af753385a6"},
	{"interfaces", "txt", "1b091e268e7fca8f1d00c2c609f873c9e0e03a836e95dce8ded3ba2c34c3c6bb", "d75362446e91adfe52946a20e6bcecfa7f334fb9ae52555260ce4c46f82e663b"},
	{"interfaces", "json", "ceb13956c4c16538056a289f1e7f341426c8d1017686466d194bada889c2f505", "4c2a9fe52a93afc6d156d73ac36bae9a1fe19e82f0256fe149f5ef9215f38c86"},
	{"partitions", "txt", "3851dce93727c2ae00028f658a041a241736734db1193f34941e29e79390c7fb", "e083762bcb25a5529e10814538a22a844d8d00c4197cd016b2dfcd078eeae52c"},
	{"partitions", "json", "1882598e24e181c5743c6bd90735c0a3cb50169d28e031448a3dfc5fc5495fa6", "ac1345d3cffed123eef95bbacacccd2a4049d13680c6cff6a82bdcefe430c6a6"},
	{"delays", "txt", "f128b8b9daf28f5dfa7d629caf824f5128df17aab17b258f397e5568914014c2", "90dd933c540ca30d36709dc320e9acac43ed10233dd2aad757e7fff4cb56f3f8"},
	{"delays", "json", "7e68bda77bdd01f6cd3810c1e7e7c2601911edde3ad355ec7d07ea1ee99644f2", "218828876aa75df0141cc61bcca73568818ec3459fafd2a5712a78d001ecf5e4"},
	{"seeds", "txt", "819f1c7d4fd44ea226fa2307534265174da01c7510f94d2b19132ef71d88e186", "e1dbe52d3e83f99c453a6a4e84cbd2188b34405258c8dc7cbd90fae47fb47541"},
	{"seeds", "json", "d3fa71a3656b70ea844c37d11552e778b6192c7f1e8fe3bbc0772c7156a91254", "0f8f8f126033135275662fefb7b6e85cf0f5f97eef82d819b335ef9884df8237"},
	{"robustness", "txt", "062c095cd436eabecd50415ad3446357c066784cf07ab57935f522e6f7b2f670", "5787ec9fe865d79c2b1c32d6aa577927ed0233b40af5b803b923ac61a1332f39"},
	{"robustness", "json", "c7a7726aab44a9b5f9a66e92b33f1641fc10831fd8455d4a81876171aa04357d", "49ebe715fbcdfd66a3299b42f49eae37360b0bf5fb91b9a6d38a5600bb045c7e"},
	{"capsweep", "txt", "8c0e008a59bd29529c6bfec700a8371864d63d9799363fa3f20830f2aac726f4", "b8e5de5f773d37a98a032159b6014713c1636ab94b0c1ee6ca677ce2297f54c2"},
	{"capsweep", "json", "4f136a9fa17604a598a99234da626ecf99fc8f7aae8df385d86468903cd67ec0", "a3115149ca1067d44b1d784420023b14051acca7c2070d909b99bc22fccb6143"},
	{"capsweep", "svg", "776d648a28fb3a36e023b26a7ac3f2b63546ef624ae7226ed040c45e6a693955", "c2d4f0c101a403de838a8e57e5071e3c9b89a398849f5a17ac165d5f6891a1f5"},
	{"captransient", "txt", "9fdae55b2c0af2381ff66ecae78b7548ba4697f67a360237c8dcc08026fe17cc", "f22a6a5e3f8021208a1440dcb6660a909d4f7275af1672f670b2c7c4c00692fc"},
	{"captransient", "json", "32e6046ac1adf13bfb9749f5f77e0bb1764f6176a7c7524022fe8417b8fe8a46", "6c18069630a2ad74cfa86d1f2711295087c0d72be3f13496289da366ca406631"},
}

// TestCatalogKeysUnchanged: every artifact and format keys as
// catalogKeys pins, through the server's prepared render and through
// experiment.RenderKey alike, and the pinned table covers the catalog.
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
			if k, err := experiment.RenderKey(spec.artifact, spec.format, spec.opt); err != nil || k != tc.want {
				t.Errorf("%s: RenderKey %s, %v, want %s", reqString(tc.req), k, err, tc.want)
			}
		}
	}
}
