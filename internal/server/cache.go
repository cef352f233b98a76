package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// Cache is the content-addressed result store: rendered experiment
// results keyed by the canonical hashes of key.go. Without a directory
// it is an in-memory map. With one, every entry persists to disk
// (dir/<key[:2]>/<key>), so separate processes — the serving daemon and
// cascade-sim -cache runs — share memoized results, and memory holds
// only what has been read: Put writes through to disk, and an entry
// enters memory on its first Get (or on a Put whose disk write failed,
// when memory is the only copy left). A daemon that computes many
// results nobody asks for again therefore does not grow with them.
//
// Values are immutable once stored: a key is derived from everything
// that determines the result bytes, so two writers racing on one key
// are by construction writing identical content.
//
// Disk entries are checksummed (see entryMagic): a versioned header
// line, the hex SHA-256 of the payload, then the payload. An entry that
// fails to decode — truncated write, bit rot, a stale pre-checksum file
// — is quarantined: renamed to <key>.corrupt, counted in cache.corrupt,
// and treated as a miss, so the result is transparently recomputed and
// rewritten. Disk I/O failures degrade rather than fail: a read error
// (other than not-exist) is a miss (cache.read_errors), a write error
// leaves the entry memory-only (cache.write_errors), and Healthy
// reports whether the most recent disk operation succeeded.
//
// The store is striped over cacheShards independently-locked shards
// keyed by a hash of the full key (the fleet-load contention audit of
// DESIGN.md §12): disk I/O happens under the owning shard's lock, so a
// slow Put — milliseconds inside the filesystem — stalls only keys that
// hash to the same shard instead of every concurrent lookup. Same-key
// writers still serialize, which preserves the one invariant the disk
// format relies on (two writers racing one key write identical bytes,
// and the second sees the first's file).
type Cache struct {
	shards [cacheShards]cacheShard
	dir    string // "" = memory only

	m      *metrics.Synced                 // nil = unmetered (CLI use)
	faults atomic.Pointer[faults.Injector] // nil = no injection
	diskOK atomic.Bool                     // most recent disk I/O succeeded
}

// cacheShards is the stripe count: enough that a fleet of workers
// probing the coordinator's index rarely collide, small enough that Len
// and shard iteration stay trivial. Must be a power of two.
const cacheShards = 16

type cacheShard struct {
	mu  sync.Mutex
	mem map[string][]byte
	_   [40]byte // pad to a cache line so shard locks don't false-share
}

// Fault-injection sites of the serving pipeline (see internal/faults).
// Tests and the cascade-server -faults dev flag arm these to prove the
// failure model of DESIGN.md §10.
const (
	// SiteCacheRead fails disk reads in Cache.Get with an injected I/O error.
	SiteCacheRead = "cache.read"
	// SiteCacheWrite fails disk writes in Cache.Put with an injected I/O error.
	SiteCacheWrite = "cache.write"
	// SiteCacheCorrupt flips one byte of a disk entry as Cache.Get reads it,
	// exercising checksum verification and quarantine.
	SiteCacheCorrupt = "cache.corrupt"
	// SiteExpPanic panics inside experiment execution (internal/server.runJob).
	SiteExpPanic = "exp.panic"
	// SiteExpStall blocks experiment execution until the job's context is
	// cancelled, exercising per-job deadlines and shutdown cancellation.
	SiteExpStall = "exp.stall"
)

// FaultSites returns every injection site the serving pipeline
// consults, for flag validation and documentation.
func FaultSites() []string {
	return []string{SiteCacheRead, SiteCacheWrite, SiteCacheCorrupt, SiteExpPanic, SiteExpStall}
}

// entryMagic heads every disk entry and versions the on-disk format.
// The full layout is:
//
//	cascade-entry/v1\n<64 hex chars of SHA-256(payload)>\n<payload>
//
// Bumping the version makes every old entry decode-fail, quarantine,
// and recompute — the disk cache self-heals across format changes.
const entryMagic = "cascade-entry/v1\n"

// checksumHexLen is the length of the hex-encoded SHA-256 in the header.
const checksumHexLen = 2 * sha256.Size

// encodeEntry frames a payload for disk: header, checksum, payload.
func encodeEntry(val []byte) []byte {
	sum := sha256.Sum256(val)
	b := make([]byte, 0, len(entryMagic)+checksumHexLen+1+len(val))
	b = append(b, entryMagic...)
	b = append(b, hex.EncodeToString(sum[:])...)
	b = append(b, '\n')
	b = append(b, val...)
	return b
}

// decodeEntry verifies a disk entry's framing and checksum and returns
// the payload.
func decodeEntry(b []byte) ([]byte, error) {
	if !bytes.HasPrefix(b, []byte(entryMagic)) {
		return nil, errors.New("missing entry header (pre-checksum or foreign file)")
	}
	rest := b[len(entryMagic):]
	if len(rest) < checksumHexLen+1 || rest[checksumHexLen] != '\n' {
		return nil, errors.New("truncated checksum header")
	}
	want := string(rest[:checksumHexLen])
	payload := rest[checksumHexLen+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != want {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// NewCache returns a cache rooted at dir (created if missing; "" for
// memory-only) reporting hit/miss counters to m (nil for none).
func NewCache(dir string, m *metrics.Synced) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	c := &Cache{dir: dir, m: m}
	for i := range c.shards {
		c.shards[i].mem = make(map[string][]byte)
	}
	c.diskOK.Store(true)
	return c, nil
}

// shard returns the stripe owning key: FNV-1a over the full key, masked
// to the power-of-two shard count. The first two key characters also
// pick the disk directory (see path), so hashing the whole key keeps
// lock striping independent of directory sharding.
func (c *Cache) shard(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// WithFaults attaches a fault injector to the cache's disk I/O sites
// (nil detaches) and returns the cache for chaining.
func (c *Cache) WithFaults(in *faults.Injector) *Cache {
	c.faults.Store(in)
	return c
}

// inj returns the attached injector (nil-safe to call sites).
func (c *Cache) inj() *faults.Injector {
	return c.faults.Load()
}

// Healthy reports whether the disk layer is believed usable: true for
// memory-only caches, false after a disk read/write error or corrupt
// entry until the next disk operation succeeds. The serving daemon's
// /healthz reports "degraded" while this is false.
func (c *Cache) Healthy() bool {
	if c.dir == "" {
		return true
	}
	return c.diskOK.Load()
}

// Get returns the bytes stored under key. Disk entries are checksum-
// verified and promoted into memory on first read; corrupt entries are
// quarantined and read as misses. Metrics: cache.hits / cache.misses
// count every lookup; cache.disk_hits counts the hits served from
// disk; cache.read_errors counts disk reads that failed for a reason
// other than the entry not existing; cache.corrupt counts quarantined
// entries.
func (c *Cache) Get(key string) ([]byte, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.mem[key]; ok {
		c.inc("cache.hits")
		return v, true
	}
	if c.dir != "" {
		if v, ok := c.diskGet(key); ok {
			c.remember(sh, key, v)
			c.inc("cache.hits")
			c.inc("cache.disk_hits")
			return v, true
		}
	}
	c.inc("cache.misses")
	return nil, false
}

// diskGet reads, verifies, and returns one disk entry. Callers must
// hold the key's shard lock. Not-exist is a plain miss; any other read
// error counts in cache.read_errors and marks the disk layer unhealthy;
// a decode failure quarantines the entry. All three read as misses.
func (c *Cache) diskGet(key string) ([]byte, bool) {
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err == nil {
		err = c.inj().Fail(SiteCacheRead)
	}
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false
		}
		c.inc("cache.read_errors")
		c.diskOK.Store(false)
		return nil, false
	}
	raw = c.inj().Corrupt(SiteCacheCorrupt, raw)
	val, derr := decodeEntry(raw)
	if derr != nil {
		c.quarantine(path)
		return nil, false
	}
	c.diskOK.Store(true)
	return val, true
}

// quarantine moves a corrupt entry aside (best-effort: a failed rename
// still reads as a miss, and the entry is rewritten on recompute) so it
// is never served and the original bytes survive for forensics.
func (c *Cache) quarantine(path string) {
	c.inc("cache.corrupt")
	os.Rename(path, path+".corrupt")
}

// DefaultQuarantineTTL is how long quarantined .corrupt files are kept
// for forensics before the startup sweep removes them. A day covers
// "the operator noticed the cache.corrupt counter and wants to look at
// the bytes"; after that they are dead weight in the cache directory.
const DefaultQuarantineTTL = 24 * time.Hour

// PurgeQuarantine removes quarantined (.corrupt) entries whose
// quarantine is older than ttl, returning how many were removed
// (counted under cache.quarantine_purged). Memory-only caches and
// non-positive TTLs are no-ops. Quarantine age is the file's mtime:
// the rename in quarantine() preserves it, so age measures time since
// the corrupt bytes were written, a conservative lower bound on time
// since quarantine.
func (c *Cache) PurgeQuarantine(ttl time.Duration) int {
	if c.dir == "" || ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	purged := 0
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".corrupt") {
			return nil // unreadable subtrees degrade to "not purged"
		}
		info, err := d.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return nil
		}
		if os.Remove(path) == nil {
			purged++
			c.inc("cache.quarantine_purged")
		}
		return nil
	})
	return purged
}

// Put stores val under key: in memory for a memory-only cache, and
// otherwise on disk only (checksummed, written to a temp file and
// renamed, so readers never observe a partial entry) — the entry enters
// memory when it is first read. A disk write failure is returned — and
// counted in cache.write_errors — but the entry is then kept in memory,
// still readable: callers that already hold a computed result should
// degrade (serve it) rather than fail.
func (c *Cache) Put(key string, val []byte) error {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.dir == "" {
		c.remember(sh, key, val)
		return nil
	}
	if err := c.diskPut(key, val); err != nil {
		c.inc("cache.write_errors")
		c.diskOK.Store(false)
		c.remember(sh, key, val)
		return err
	}
	c.diskOK.Store(true)
	return nil
}

// remember keeps val as key's memory copy unless one exists (values are
// immutable, so the first copy is as good as any). cache.entries and
// cache.bytes count what memory holds. Callers must hold sh's lock.
func (c *Cache) remember(sh *cacheShard, key string, val []byte) {
	if _, ok := sh.mem[key]; ok {
		return
	}
	sh.mem[key] = val
	if c.m != nil {
		c.m.Inc("cache.entries")
		c.m.Add("cache.bytes", int64(len(val)))
	}
}

// diskPut writes one checksummed entry. Callers must hold the key's
// shard lock.
func (c *Cache) diskPut(key string, val []byte) error {
	if err := c.inj().Fail(SiteCacheWrite); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	path := c.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil // identical content by construction; keep the old file
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(encodeEntry(val)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].mem)
		c.shards[i].mu.Unlock()
	}
	return n
}

// path shards entries by the first two key characters so no single
// directory grows unboundedly.
func (c *Cache) path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(c.dir, shard, key)
}

func (c *Cache) inc(name string) {
	if c.m != nil {
		c.m.Inc(name)
	}
}
