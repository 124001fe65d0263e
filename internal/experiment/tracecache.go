package experiment

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"sync"

	"mcddvfs/internal/flight"
	"mcddvfs/internal/trace"
)

// The single-run path (RunOne / RunProfile and every report built on
// them) regenerates its workload stream from the profile on each
// uncached simulation, even when the same (profile, seed, budget)
// stream was generated moments ago — e.g. a benchmark loop or a report
// that runs several schemes over one benchmark with result caching
// off. Generation is a large fraction of an uncontrolled run (RNG
// draws, branch-history map updates), so the harness keeps a small LRU
// of recorded streams and hands each run a zero-alloc replay cursor;
// concurrent misses on one stream join a single recording. A replayed
// stream is bit-identical to a generated one (see
// trace.RecordProfile), which keeps the cache semantics-free; the
// SetTraceSharing toggle that governs the matrix trace bank disables
// this cache too, preserving the pre-sharing behavior for A/B runs.
type replayCache struct {
	flights flight.Group[replayKey, *trace.Recorded]

	mu         sync.Mutex
	entries    map[replayKey]*list.Element // value: *replayEntry
	order      *list.List                  // front = most recently used
	bytes      int64
	maxBytes   int64
	recordings int // streams recorded since the last reset
}

type replayKey struct {
	// fingerprint digests the full Profile value, so two distinct
	// custom profiles sharing a name can never alias.
	fingerprint [sha256.Size]byte
	seed        int64
	insts       int64
}

type replayEntry struct {
	key replayKey
	rec *trace.Recorded
}

// replayCacheMaxBytes bounds resident recordings. A 100k-instruction
// trace is ~2.5 MB (25 B/inst), so the default holds the whole bundled
// suite at benchmark budgets with room to spare.
const replayCacheMaxBytes = 64 << 20

var sharedReplays = &replayCache{
	entries:  make(map[replayKey]*list.Element),
	order:    list.New(),
	maxBytes: replayCacheMaxBytes,
}

// key fingerprints a profile. Profiles are tiny (a handful of phases),
// so one JSON encode + digest per simulation is noise next to trace
// generation, and it is exact: any field that changes the generated
// stream changes the key.
func (c *replayCache) key(prof trace.Profile, seed, insts int64) (replayKey, bool) {
	raw, err := json.Marshal(prof)
	if err != nil {
		return replayKey{}, false
	}
	return replayKey{fingerprint: sha256.Sum256(raw), seed: seed, insts: insts}, true
}

// source returns a replay cursor over the memoized recording for
// (prof, seed, insts), recording it on first use. It falls back to a
// streaming Generator when sharing is disabled or the recording would
// not fit the cache. Concurrent misses on one key share a single
// recording; ctx bounds this caller's wait, never the recording, which
// every caller needs.
func (c *replayCache) source(ctx context.Context, prof trace.Profile, seed, insts int64) (trace.Source, error) {
	var k replayKey
	shared := traceSharingEnabled() && insts > 0 && insts*25 <= c.maxBytes
	if shared {
		k, shared = c.key(prof, seed, insts)
	}
	if !shared {
		gen, err := trace.NewGenerator(prof, seed, insts)
		if err != nil {
			return nil, invalidSpec(err)
		}
		return gen, nil
	}
	if rec := c.lookup(k); rec != nil {
		return rec.Replay(), nil
	}
	rec, _, err := c.flights.Do(ctx, k, func(context.Context) (*trace.Recorded, error) {
		if rec := c.lookup(k); rec != nil {
			return rec, nil // recorded by a flight that finished since our lookup
		}
		rec, err := trace.RecordProfile(prof, seed, insts)
		if err != nil {
			return nil, invalidSpec(err)
		}
		c.insert(k, rec)
		return rec, nil
	})
	if err != nil {
		return nil, wrapRunErr(err)
	}
	return rec.Replay(), nil
}

// lookup returns the memoized recording for k (nil on a miss) and marks
// it most recently used.
func (c *replayCache) lookup(k replayKey) *trace.Recorded {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, hit := c.entries[k]
	if !hit {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*replayEntry).rec
}

// insert memoizes rec under k, evicting least recently used recordings
// past the byte budget.
func (c *replayCache) insert(k replayKey, rec *trace.Recorded) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordings++
	c.entries[k] = c.order.PushFront(&replayEntry{key: k, rec: rec})
	c.bytes += rec.Bytes()
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		old := c.order.Back()
		e := old.Value.(*replayEntry)
		c.order.Remove(old)
		delete(c.entries, e.key)
		c.bytes -= e.rec.Bytes()
	}
}

// reset drops every memoized recording (test hook; ResetCache calls
// it so "cold" benchmark regimes really are cold).
func (c *replayCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[replayKey]*list.Element)
	c.order.Init()
	c.bytes = 0
	c.recordings = 0
}
