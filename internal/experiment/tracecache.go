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

// Every uncached simulation streams core 0's workload from a recorded
// stream: a matrix cell, RunOneContext / RunProfileContext and every
// report built on them. Generation is a large fraction of an uncontrolled run (RNG
// draws, branch-history map updates), and the same (profile, seed,
// budget) stream serves every scheme run over one benchmark, so the
// harness keeps one LRU memo of recorded streams and hands each run a
// zero-alloc replay cursor; concurrent misses on one stream join a
// single recording. A matrix drops each benchmark's recording once its
// last cell is done (see tracebank.go). A replayed stream is
// bit-identical to a generated one (see trace.RecordProfile), which
// keeps the memo semantics-free. A stream too large for the memo's
// byte budget is generated per run.
type replayCache struct {
	flights flight.Group[replayKey, *trace.Recorded]

	mu         sync.Mutex
	entries    map[replayKey]*list.Element // value: *replayEntry
	order      *list.List                  // front = most recently used
	bytes      int64
	maxBytes   int64
	recordings int // streams recorded since the last reset
	// recording tracks the keys being recorded. A flight abandoned by
	// all its waiters keeps recording while a later caller starts
	// another, so one key can have several recordings in progress.
	recording map[replayKey]recordingState
}

// recordingState is one key's recordings in progress: how many, and
// whether the key was dropped meanwhile, in which case none of them is
// memoized.
type recordingState struct {
	n       int
	dropped bool
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

// replayCacheMaxBytes bounds resident recordings, charged at each
// recording's Bytes. The bundled profiles record at 3.1–4.1 B/inst, so
// the default holds all 17 bundled streams at once both at 100k
// instructions (5.9 MB together) and at the 500k default budget
// (29.4 MB together).
const replayCacheMaxBytes = 64 << 20

func newReplayCache() *replayCache {
	return &replayCache{
		entries:   make(map[replayKey]*list.Element),
		order:     list.New(),
		maxBytes:  replayCacheMaxBytes,
		recording: make(map[replayKey]recordingState),
	}
}

// key fingerprints a stream for the memo; ok is false when the stream
// bypasses the memo because its recording, at trace.AdmitBytesPerInst,
// would not fit. Profiles are tiny (a handful of phases), so one JSON
// encode + digest per stream is noise next to trace generation, and it
// is exact: any field that changes the generated stream changes the
// key.
func (c *replayCache) key(prof trace.Profile, seed, insts int64) (replayKey, bool) {
	if insts <= 0 || insts*trace.AdmitBytesPerInst > c.maxBytes {
		return replayKey{}, false
	}
	raw, err := json.Marshal(prof)
	if err != nil {
		return replayKey{}, false
	}
	return replayKey{fingerprint: sha256.Sum256(raw), seed: seed, insts: insts}, true
}

// source returns a cursor over (prof, seed, insts): a replay of the
// memoized recording, or a streaming Generator when the stream
// bypasses the memo.
func (c *replayCache) source(ctx context.Context, prof trace.Profile, seed, insts int64) (trace.Source, error) {
	if k, ok := c.key(prof, seed, insts); ok {
		return c.replay(ctx, k, prof)
	}
	gen, err := trace.NewGenerator(prof, seed, insts)
	if err != nil {
		return nil, invalidSpec(err)
	}
	return gen, nil
}

// replay returns a replay cursor over the memoized recording for k, the
// key of prof's stream, recording it on first use. Concurrent misses on
// one key share a single recording; ctx bounds this caller's wait,
// never the recording, which every caller needs.
func (c *replayCache) replay(ctx context.Context, k replayKey, prof trace.Profile) (trace.Source, error) {
	if rec := c.lookup(k); rec != nil {
		return rec.Replay(), nil
	}
	rec, _, err := c.flights.Do(ctx, k, func(context.Context) (*trace.Recorded, error) {
		if rec := c.lookup(k); rec != nil {
			return rec, nil // recorded by a flight that finished since our lookup
		}
		c.begin(k)
		var rec *trace.Recorded
		defer func() { c.finish(k, rec) }()
		var err error
		if rec, err = trace.RecordProfile(prof, k.seed, k.insts); err != nil {
			return nil, invalidSpec(err)
		}
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

// begin counts a recording of k in progress.
func (c *replayCache) begin(k replayKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.recording[k]
	st.n++
	c.recording[k] = st
}

// finish ends a recording of k: it memoizes rec (nil when the
// recording failed) unless k was dropped while a recording of it was
// in progress, evicting least recently used recordings past the byte
// budget.
func (c *replayCache) finish(k replayKey, rec *trace.Recorded) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.recording[k]
	if st.n--; st.n == 0 {
		delete(c.recording, k)
	} else {
		c.recording[k] = st
	}
	if rec == nil {
		return
	}
	c.recordings++
	if st.dropped {
		return
	}
	c.entries[k] = c.order.PushFront(&replayEntry{key: k, rec: rec})
	c.bytes += rec.Bytes()
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		c.removeLocked(c.order.Back())
	}
}

// drop forgets the recording for k: the resident one, and those in
// progress, which are then not memoized when they finish. Cursors
// already handed out keep replaying it.
func (c *replayCache) drop(k replayKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, hit := c.entries[k]; hit {
		c.removeLocked(el)
	}
	if st, busy := c.recording[k]; busy {
		st.dropped = true
		c.recording[k] = st
	}
}

// removeLocked unlinks one memo entry. Callers hold c.mu.
func (c *replayCache) removeLocked(el *list.Element) {
	e := el.Value.(*replayEntry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.rec.Bytes()
}

// reset drops every memoized recording (ResetCache calls it so "cold"
// benchmark regimes really are cold).
func (c *replayCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[replayKey]*list.Element)
	c.order.Init()
	c.bytes = 0
	c.recordings = 0
}
