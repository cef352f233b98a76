package experiments

import (
	"context"
	"errors"
	"sync"

	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// Worker-side prefix-snapshot reuse. Sweep points overwhelmingly share a
// strategy-independent prefix — the same dataset build, the same machine
// construction, the same warm-up calls — and differ only in the tail
// (strategy, chunk size, processor count). A decomposition that declares
// its points' prefixes lets a worker simulate each distinct prefix once,
// park the sealed machine.Snapshot in a bounded LRU, and Fork per point:
// O(points x full-run) becomes O(prefixes x prefix + points x tail).
//
// The contract that keeps the fabric's byte-identity guarantee intact:
// RunWarm(BuildPrefix(Prefix(ps)), ps) must produce exactly the bytes
// Run(ps) produces, for every point that declares a prefix. The
// decompositions here satisfy it by construction — the cold Run path is
// literally BuildPrefix followed by RunWarm on a private state — and the
// equivalence tests in prefix_test.go pin it.

// PrefixSpec is the serializable resolved description of a shared sweep
// prefix. Everything that determines the post-prefix machine state is a
// field; the canonical content address over the resolved form (machine
// config bytes, dataset params) is PrefixState.Key.
type PrefixSpec struct {
	// Machine is the machine preset name; Procs overrides its count.
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	// Scale is the PARMVR dataset scale factor.
	Scale float64 `json:"scale"`
	// WarmupCalls sequential full-PARMVR calls run before the snapshot.
	WarmupCalls int `json:"warmup_calls"`
	// Distribute models the surrounding parallel phases by distributing
	// the dataset's lines dirty across caches before the warm-up calls.
	Distribute bool `json:"distribute,omitempty"`
}

// PrefixState is a built prefix: the workload, the sealed machine
// snapshot, and the space checkpoint every point forks from. Points
// sharing one state must serialize (they restore and mutate the shared
// Space); callers hold mu across RunWarm.
type PrefixState struct {
	Spec PrefixSpec
	Key  string

	mu   sync.Mutex
	cfg  machine.Config
	w    *wave5.PARMVR
	snap *machine.Snapshot
	ck   *memsim.SpaceState
	mem  int64
}

// MemBytes estimates the host memory the state retains: the snapshot's
// sealed component arrays plus the checkpointed address space.
func (st *PrefixState) MemBytes() int64 { return st.mem }

// BuildPrefix simulates a prefix from scratch: dataset build, machine
// construction, and — when the spec asks — data distribution plus the
// warm-up calls, sealed with a snapshot and a space checkpoint.
func BuildPrefix(ctx context.Context, spec PrefixSpec) (*PrefixState, error) {
	cfg, err := machineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithProcs(spec.Procs)
	p := wave5.DefaultParams().Scaled(spec.Scale)
	key, err := prefixKeyOf(cfg, p, spec.WarmupCalls, spec.Distribute)
	if err != nil {
		return nil, err
	}
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if spec.Distribute {
		if err := runWarmPrefix(ctx, m, w, spec.WarmupCalls); err != nil {
			return nil, err
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	mem := snap.MemBytes()
	for _, a := range w.Space.Arrays() {
		mem += int64(a.SizeBytes())
	}
	return &PrefixState{
		Spec: spec, Key: key, cfg: cfg, w: w,
		snap: snap, ck: w.Space.Checkpoint(), mem: mem,
	}, nil
}

// fork rewinds the shared space to the checkpoint and builds a fresh
// machine off the snapshot. Callers hold st.mu.
func (st *PrefixState) fork() (*machine.Machine, error) {
	m, err := st.snap.Fork()
	if err != nil {
		return nil, err
	}
	st.w.Space.RestoreState(st.ck)
	return m, nil
}

// PrefixCacheStats is a point-in-time summary of a PrefixCache.
type PrefixCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes, MaxBytes         int64
}

// PrefixCache is the worker's bounded snapshot LRU: prefix key -> built
// PrefixState, capped by estimated bytes. Concurrent requests for the
// same key single-flight the build; an evicted state stays usable by
// points already holding it (sealed snapshot arrays are immutable), the
// cache merely drops its reference.
type PrefixCache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	entries map[string]*prefixEntry
	order   []string // LRU order, least recent first
	stats   PrefixCacheStats

	// buildHook, when set, runs at the start of every build, on the
	// building caller's goroutine (a test seam).
	buildHook func()
}

type prefixEntry struct {
	once sync.Once
	st   *PrefixState
	err  error
}

// DefaultPrefixCacheBytes is the default snapshot-LRU ceiling: a few
// paper-scale prefixes (a PARMVR space is ~25 MB at scale 1.0, an 8-proc
// R10000 snapshot ~33 MB).
const DefaultPrefixCacheBytes = 256 << 20

// NewPrefixCache returns a cache bounded by maxBytes of estimated state
// (MemBytes); maxBytes <= 0 uses DefaultPrefixCacheBytes.
func NewPrefixCache(maxBytes int64) *PrefixCache {
	if maxBytes <= 0 {
		maxBytes = DefaultPrefixCacheBytes
	}
	return &PrefixCache{max: maxBytes, entries: map[string]*prefixEntry{}}
}

// Stats returns a snapshot of the cache's counters.
func (c *PrefixCache) Stats() PrefixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes, s.MaxBytes = c.used, c.max
	return s
}

// state returns the built PrefixState for spec, building it on first use
// (single-flight per key) and recording the LRU touch.
//
// The first caller builds under its own ctx, so its cancellation or
// deadline can abort the build. That failure belongs to the builder
// alone: a waiter whose ctx is still live starts a build of its own
// instead of returning the builder's context error.
func (c *PrefixCache) state(ctx context.Context, spec PrefixSpec) (*PrefixState, error) {
	cfg, err := machineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	key, err := prefixKeyOf(cfg.WithProcs(spec.Procs), wave5.DefaultParams().Scaled(spec.Scale),
		spec.WarmupCalls, spec.Distribute)
	if err != nil {
		return nil, err
	}
	for {
		e := c.entry(key)
		e.once.Do(func() { c.build(ctx, key, e, spec) })
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue // the builder's context failed, not ours
		}
		return e.st, e.err
	}
}

// entry returns key's entry, creating it on a miss, and records the
// lookup and the LRU touch.
func (c *PrefixCache) entry(key string) *prefixEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &prefixEntry{}
		c.entries[key] = e
		c.stats.Misses++
	} else {
		c.stats.Hits++
	}
	c.touch(key)
	return e
}

// build fills e, charging its bytes on success. A failed entry leaves
// the cache, so the next request for key builds afresh.
func (c *PrefixCache) build(ctx context.Context, key string, e *prefixEntry, spec PrefixSpec) {
	if c.buildHook != nil {
		c.buildHook()
	}
	st, err := BuildPrefix(ctx, spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Under c.mu: evictLocked reads e.st of entries still building.
	e.st, e.err = st, err
	if err != nil {
		if c.entries[key] == e {
			c.drop(key)
		}
		return
	}
	c.used += e.st.MemBytes()
	c.evictLocked(key)
}

// touch moves key to the most-recent end of the LRU order (appending it
// when new). Callers hold c.mu.
func (c *PrefixCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

// drop removes key from the map and order without byte accounting (used
// for failed builds, which never charged bytes). Callers hold c.mu.
func (c *PrefixCache) drop(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recently-used entries until the byte ceiling
// holds, never evicting keep (the entry just built). Callers hold c.mu.
func (c *PrefixCache) evictLocked(keep string) {
	for c.used > c.max && len(c.order) > 1 {
		victim := c.order[0]
		if victim == keep {
			if len(c.order) < 2 {
				return
			}
			victim = c.order[1]
		}
		if e := c.entries[victim]; e != nil && e.st != nil {
			c.used -= e.st.MemBytes()
		}
		c.drop(victim)
		c.stats.Evictions++
	}
}

// RunPoint executes one spec through the warm path when its
// decomposition declares a prefix for it: the prefix state is fetched
// from (or built into) the cache and the point forks off it. ok is false
// when the point has no warm path — the caller falls back to the cold
// RunPoint. The per-state lock serializes points sharing one prefix;
// distinct prefixes run concurrently.
func (c *PrefixCache) RunPoint(ctx context.Context, ps PointSpec) (PointResult, bool, error) {
	d, reg := decompositions[ps.Experiment]
	if !reg || d.Prefix == nil || d.RunWarm == nil {
		return PointResult{}, false, nil
	}
	spec, ok := d.Prefix(ps)
	if !ok {
		return PointResult{}, false, nil
	}
	st, err := c.state(ctx, spec)
	if err != nil {
		return PointResult{}, true, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	res, err := d.RunWarm(ctx, st, ps)
	return res, true, err
}

// WarmRunnable reports whether an experiment's decomposition declares a
// warm path at all.
func WarmRunnable(experiment string) bool {
	d, ok := decompositions[experiment]
	return ok && d.Prefix != nil && d.RunWarm != nil
}
