package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mcddvfs/internal/detfs"
)

// A corpus directory is a set of chunked trace files plus a
// manifest that pins everything a matrix run needs to resolve
// benchmarks without generating traces: which benchmarks exist, which
// file holds each stream, the harness seed and instruction count the
// streams were recorded at, a SHA-256 of every file, and the full
// synthetic profile each stream came from (so replay against a corpus
// does not depend on the binary's bundled profile table).
//
// The manifest — not a directory listing — is the source of truth for
// membership and order: members are sorted by benchmark name and
// OpenCorpus rejects a manifest that is not, so a matrix resolved from
// a corpus is deterministic without any filesystem enumeration on the
// replay path (dettaint stays clean). Only VerifyCorpus lists the
// directory, through detfs.SortedNames, to catch orphan files.

// CorpusManifestName is the manifest file every corpus directory
// carries.
const CorpusManifestName = "manifest.json"

// CorpusMemberExt is the extension of chunked member trace files.
const CorpusMemberExt = ".mcdc"

// CorpusMember describes one benchmark stream in a corpus.
type CorpusMember struct {
	// Benchmark is the workload name, equal to Profile.Name.
	Benchmark string `json:"benchmark"`
	// File is the member's chunked trace file, relative to the corpus
	// directory (no path separators allowed).
	File string `json:"file"`
	// SHA256 is the hex digest of the file's bytes.
	SHA256 string `json:"sha256"`
	// Profile is the full synthetic profile the stream was recorded
	// from, embedded so replay needs nothing from the profile table.
	Profile Profile `json:"profile"`
}

// CorpusManifest is the manifest.json schema.
type CorpusManifest struct {
	// FormatVersion is the chunked trace format version of the members.
	FormatVersion int `json:"format_version"`
	// Seed is the user-facing harness seed; member streams were
	// recorded with the generator seeded at StreamSeed(Seed).
	Seed int64 `json:"seed"`
	// Instructions is the length of every member stream.
	Instructions int64 `json:"instructions"`
	// Members are the streams, sorted by Benchmark.
	Members []CorpusMember `json:"members"`
}

// EmitCorpusMember records profile prof for insts instructions at
// harness seed seed and writes it as a chunked member file in dir,
// hashing the bytes as they are written. The file is published
// atomically (temp file + rename). It returns the manifest entry.
func EmitCorpusMember(dir string, prof Profile, seed, insts int64, chunkInsts int) (CorpusMember, error) {
	if err := checkMemberName(prof.Name); err != nil {
		return CorpusMember{}, err
	}
	gen, err := NewGenerator(prof, StreamSeed(seed), insts)
	if err != nil {
		return CorpusMember{}, err
	}
	file := prof.Name + CorpusMemberExt
	tmp, err := os.CreateTemp(dir, file+".tmp*")
	if err != nil {
		return CorpusMember{}, err
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	_, err = WriteChunked(io.MultiWriter(tmp, h), gen, insts, chunkInsts)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return CorpusMember{}, fmt.Errorf("trace: emitting corpus member %q: %w", prof.Name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, file)); err != nil {
		return CorpusMember{}, err
	}
	return CorpusMember{
		Benchmark: prof.Name,
		File:      file,
		SHA256:    hex.EncodeToString(h.Sum(nil)),
		Profile:   prof,
	}, nil
}

// WriteCorpusManifest sorts the manifest's members, validates it, and
// writes it atomically to dir.
func WriteCorpusManifest(dir string, man CorpusManifest) error {
	sort.Slice(man.Members, func(i, j int) bool {
		return man.Members[i].Benchmark < man.Members[j].Benchmark
	})
	if err := validateManifest(&man); err != nil {
		return err
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(dir, CorpusManifestName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, CorpusManifestName))
}

// checkMemberName rejects benchmark names that cannot be member file
// stems.
func checkMemberName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("trace: benchmark name %q is not a valid corpus member name", name)
	}
	return nil
}

// validateManifest checks the structural invariants OpenCorpus relies
// on.
func validateManifest(man *CorpusManifest) error {
	if man.FormatVersion != ChunkedVersion {
		return fmt.Errorf("trace: corpus format version %d, want %d", man.FormatVersion, ChunkedVersion)
	}
	if man.Instructions <= 0 {
		return fmt.Errorf("trace: corpus declares non-positive instruction count %d", man.Instructions)
	}
	if len(man.Members) == 0 {
		return fmt.Errorf("trace: corpus has no members")
	}
	for i := range man.Members {
		m := &man.Members[i]
		if err := checkMemberName(m.Benchmark); err != nil {
			return err
		}
		if i > 0 && man.Members[i-1].Benchmark >= m.Benchmark {
			return fmt.Errorf("trace: corpus members not sorted by benchmark (%q before %q)", man.Members[i-1].Benchmark, m.Benchmark)
		}
		if m.File == "" || strings.ContainsAny(m.File, "/\\") {
			return fmt.Errorf("trace: corpus member %q: bad file name %q", m.Benchmark, m.File)
		}
		if m.Profile.Name != m.Benchmark {
			return fmt.Errorf("trace: corpus member %q embeds profile %q", m.Benchmark, m.Profile.Name)
		}
		if err := m.Profile.Validate(); err != nil {
			return fmt.Errorf("trace: corpus member %q: %w", m.Benchmark, err)
		}
	}
	return nil
}

// Corpus is an opened corpus directory: the parsed, validated
// manifest. Member streams open lazily via Open.
type Corpus struct {
	dir    string
	man    CorpusManifest
	byName map[string]*CorpusMember
}

// OpenCorpus reads and validates dir's manifest. It touches only the
// manifest file — member files are checked when opened — and never
// lists the directory.
func OpenCorpus(dir string) (*Corpus, error) {
	b, err := os.ReadFile(filepath.Join(dir, CorpusManifestName))
	if err != nil {
		return nil, fmt.Errorf("trace: opening corpus: %w", err)
	}
	var man CorpusManifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("trace: corpus manifest %s: %w", filepath.Join(dir, CorpusManifestName), err)
	}
	if err := validateManifest(&man); err != nil {
		return nil, err
	}
	c := &Corpus{dir: dir, man: man, byName: make(map[string]*CorpusMember, len(man.Members))}
	for i := range man.Members {
		c.byName[man.Members[i].Benchmark] = &man.Members[i]
	}
	return c, nil
}

// Seed returns the harness seed the corpus was recorded at.
func (c *Corpus) Seed() int64 { return c.man.Seed }

// Instructions returns the per-member stream length.
func (c *Corpus) Instructions() int64 { return c.man.Instructions }

// Benchmarks returns the member benchmark names in manifest (sorted)
// order.
func (c *Corpus) Benchmarks() []string {
	names := make([]string, len(c.man.Members))
	for i := range c.man.Members {
		names[i] = c.man.Members[i].Benchmark
	}
	return names
}

// Member returns the manifest entry for a benchmark.
func (c *Corpus) Member(bench string) (CorpusMember, bool) {
	m, ok := c.byName[bench]
	if !ok {
		return CorpusMember{}, false
	}
	return *m, true
}

// Profile returns the embedded profile for a benchmark.
func (c *Corpus) Profile(bench string) (Profile, error) {
	m, ok := c.byName[bench]
	if !ok {
		return Profile{}, fmt.Errorf("trace: corpus has no member %q", bench)
	}
	return m.Profile, nil
}

// Open opens a member's chunked stream with the given window and
// cross-checks the file's own header against the manifest.
func (c *Corpus) Open(bench string, window int) (*ChunkedFile, error) {
	m, ok := c.byName[bench]
	if !ok {
		return nil, fmt.Errorf("trace: corpus has no member %q", bench)
	}
	cf, err := OpenChunkedFile(filepath.Join(c.dir, m.File), window)
	if err != nil {
		return nil, err
	}
	if cf.Name() != bench || cf.Count() != c.man.Instructions {
		cf.Close()
		return nil, fmt.Errorf("trace: corpus member %q: file %s holds %q (%d instructions), manifest declares %q (%d)",
			bench, m.File, cf.Name(), cf.Count(), bench, c.man.Instructions)
	}
	return cf, nil
}

// VerifyCorpus is the full integrity pass: it re-hashes every member
// file against its manifest SHA-256, decodes every chunk (CRC
// included) through a bounded window, and scans the directory for
// member-shaped files the manifest does not know about. This is the
// one corpus path that lists the directory; the listing goes through
// detfs.SortedNames.
func VerifyCorpus(dir string) error {
	c, err := OpenCorpus(dir)
	if err != nil {
		return err
	}
	for i := range c.man.Members {
		m := &c.man.Members[i]
		if err := verifyMemberHash(filepath.Join(dir, m.File), m.SHA256); err != nil {
			return fmt.Errorf("trace: corpus member %q: %w", m.Benchmark, err)
		}
		cf, err := c.Open(m.Benchmark, 0)
		if err != nil {
			return err
		}
		err = cf.VerifyChunks()
		cf.Close()
		if err != nil {
			return err
		}
	}
	names, err := detfs.SortedNames(dir)
	if err != nil {
		return err
	}
	known := make(map[string]bool, len(c.man.Members))
	for i := range c.man.Members {
		known[c.man.Members[i].File] = true
	}
	var orphans []string
	for _, n := range names {
		if strings.HasSuffix(n, CorpusMemberExt) && !known[n] {
			orphans = append(orphans, n)
		}
	}
	if len(orphans) > 0 {
		return fmt.Errorf("trace: corpus holds trace files the manifest does not list: %s", strings.Join(orphans, ", "))
	}
	return nil
}

// verifyMemberHash re-hashes a member file and compares digests.
func verifyMemberHash(path, want string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return fmt.Errorf("checksum mismatch: file %s hashes to %s, manifest says %s", path, got, want)
	}
	return nil
}
