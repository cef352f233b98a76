package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

func TestCacheMemory(t *testing.T) {
	m := metrics.NewSynced()
	c, err := NewCache("", m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache returned a hit")
	}
	if err := c.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get("k1")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}
	snap := m.Snapshot()
	if snap.Get("cache.hits") != 1 || snap.Get("cache.misses") != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", snap.Get("cache.hits"), snap.Get("cache.misses"))
	}
	if snap.Get("cache.entries") != 1 || snap.Get("cache.bytes") != 2 {
		t.Errorf("entries/bytes = %d/%d, want 1/2", snap.Get("cache.entries"), snap.Get("cache.bytes"))
	}
}

// TestCacheDiskPersistence pins the cross-process sharing path: a second
// cache over the same directory — a fresh server, or a cascade-sim -cache
// run — sees the first one's entries, and the disk hit is counted.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 1000)
	if err := c1.Put("deadbeef-json", val); err != nil {
		t.Fatal(err)
	}
	// Entries shard by the first two key characters.
	if _, err := os.Stat(filepath.Join(dir, "de", "deadbeef-json")); err != nil {
		t.Fatalf("expected sharded cache file: %v", err)
	}

	m := metrics.NewSynced()
	c2, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef-json")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("disk entry not shared: ok=%v len=%d", ok, len(got))
	}
	if m.Value("cache.disk_hits") != 1 {
		t.Errorf("cache.disk_hits = %d, want 1", m.Value("cache.disk_hits"))
	}
	// Promoted to memory: a second read must not be a disk hit.
	if _, ok := c2.Get("deadbeef-json"); !ok {
		t.Fatal("promoted entry lost")
	}
	if m.Value("cache.disk_hits") != 1 {
		t.Errorf("promoted entry re-read from disk")
	}
	if c2.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c2.Len())
	}
}

// TestCacheEntryFraming pins the on-disk format: versioned header,
// payload checksum, payload — and that decode round-trips.
func TestCacheEntryFraming(t *testing.T) {
	val := []byte("the payload")
	enc := encodeEntry(val)
	if !bytes.HasPrefix(enc, []byte(entryMagic)) {
		t.Fatalf("entry does not start with %q", entryMagic)
	}
	dec, err := decodeEntry(enc)
	if err != nil || !bytes.Equal(dec, val) {
		t.Fatalf("decode = %q, %v", dec, err)
	}
	for name, raw := range map[string][]byte{
		"empty":         nil,
		"no header":     []byte("raw pre-checksum bytes"),
		"truncated":     enc[:len(entryMagic)+10],
		"flipped byte":  flipLast(enc),
		"flipped hdr":   flipAt(enc, len(entryMagic)),
		"extra payload": append(append([]byte{}, enc...), 'x'),
	} {
		if _, err := decodeEntry(raw); err == nil {
			t.Errorf("%s: decodeEntry accepted", name)
		}
	}
}

func flipLast(b []byte) []byte { return flipAt(b, len(b)-1) }

func flipAt(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}

// TestCacheCorruptQuarantine pins the self-healing path: a corrupted
// disk entry is renamed to <key>.corrupt, counted, read as a miss, and
// the rewritten entry serves normally afterwards.
func TestCacheCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("precious result bytes")
	if err := c1.Put("cafef00d-json", val); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ca", "cafef00d-json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // bit rot in the payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m := metrics.NewSynced()
	c2, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("cafef00d-json"); ok {
		t.Fatal("corrupt entry served")
	}
	if m.Value("cache.corrupt") != 1 {
		t.Errorf("cache.corrupt = %d, want 1", m.Value("cache.corrupt"))
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("original path still present: %v", err)
	}
	// Recompute-and-rewrite: the same key stores and serves again.
	if err := c2.Put("cafef00d-json", val); err != nil {
		t.Fatal(err)
	}
	c3, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c3.Get("cafef00d-json")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("rewritten entry = %q, %v", got, ok)
	}
}

// TestCacheStaleFormatQuarantined pins migration behaviour: a
// pre-checksum entry (raw payload, no header) is quarantined rather
// than served, so format bumps self-heal.
func TestCacheStaleFormatQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ab", "abcd-json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("old raw-format entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := metrics.NewSynced()
	c, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("abcd-json"); ok {
		t.Fatal("stale-format entry served")
	}
	if m.Value("cache.corrupt") != 1 {
		t.Errorf("cache.corrupt = %d, want 1", m.Value("cache.corrupt"))
	}
}

// TestCacheReadErrorDistinguished pins the satellite fix: a read
// failure that is not fs.ErrNotExist is a miss that counts in
// cache.read_errors and degrades Healthy(); a plain absent entry
// counts in neither.
func TestCacheReadErrorDistinguished(t *testing.T) {
	dir := t.TempDir()
	m := metrics.NewSynced()
	c, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("absent-json"); ok {
		t.Fatal("absent key hit")
	}
	if m.Value("cache.read_errors") != 0 {
		t.Errorf("not-exist counted as read error")
	}
	if !c.Healthy() {
		t.Error("not-exist degraded health")
	}

	// A real I/O error: the entry path is a directory, so ReadFile fails
	// with something other than not-exist.
	path := filepath.Join(dir, "de", "deadbeef-json")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("deadbeef-json"); ok {
		t.Fatal("directory entry hit")
	}
	if m.Value("cache.read_errors") != 1 {
		t.Errorf("cache.read_errors = %d, want 1", m.Value("cache.read_errors"))
	}
	if c.Healthy() {
		t.Error("read error did not degrade health")
	}
}

// TestCacheInjectedIOFaults pins the fault sites the chaos suite leans
// on: injected read errors count and degrade, injected write errors
// leave the entry memory-readable, and health recovers on the next
// clean disk operation.
func TestCacheInjectedIOFaults(t *testing.T) {
	dir := t.TempDir()
	seed := NewCacheMust(t, dir, nil)
	if err := seed.Put("feedface-json", []byte("stored")); err != nil {
		t.Fatal(err)
	}

	m := metrics.NewSynced()
	c := NewCacheMust(t, dir, m)
	inj := faults.New(11)
	inj.Arm(SiteCacheRead, faults.Trigger{OnCall: 1})
	inj.Arm(SiteCacheWrite, faults.Trigger{OnCall: 1})
	c.WithFaults(inj)

	if _, ok := c.Get("feedface-json"); ok {
		t.Fatal("injected read error still hit")
	}
	if m.Value("cache.read_errors") != 1 || c.Healthy() {
		t.Errorf("read fault: read_errors=%d healthy=%v", m.Value("cache.read_errors"), c.Healthy())
	}

	err := c.Put("0badc0de-json", []byte("degraded"))
	if err == nil || !errors.Is(err, faults.ErrInjected) || !strings.Contains(err.Error(), SiteCacheWrite) {
		t.Fatalf("injected write error = %v", err)
	}
	if m.Value("cache.write_errors") != 1 {
		t.Errorf("cache.write_errors = %d, want 1", m.Value("cache.write_errors"))
	}
	if v, ok := c.Get("0badc0de-json"); !ok || string(v) != "degraded" {
		t.Error("failed write lost the in-memory copy")
	}
	// Sites fire once each: the next disk round-trip restores health.
	if err := c.Put("00c0ffee-json", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if !c.Healthy() {
		t.Error("health did not recover after a clean write")
	}
}

// NewCacheMust is the test shorthand for NewCache.
func NewCacheMust(t *testing.T, dir string, m *metrics.Synced) *Cache {
	t.Helper()
	c, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCachePutIdempotent pins that re-storing a key (two processes
// finishing the same point) neither errors nor double-counts. On a
// disk-backed cache the puts leave memory empty (cache.entries and
// cache.bytes count memory); the first read promotes the entry, once.
func TestCachePutIdempotent(t *testing.T) {
	m := metrics.NewSynced()
	c, err := NewCache(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put("kk", []byte("vv")); err != nil {
			t.Fatal(err)
		}
	}
	if m.Value("cache.entries") != 0 || m.Value("cache.bytes") != 0 {
		t.Errorf("after puts: entries/bytes = %d/%d, want 0/0", m.Value("cache.entries"), m.Value("cache.bytes"))
	}
	for i := 0; i < 2; i++ {
		if v, ok := c.Get("kk"); !ok || string(v) != "vv" {
			t.Fatalf("Get = %q, %v", v, ok)
		}
	}
	if m.Value("cache.entries") != 1 || m.Value("cache.bytes") != 2 {
		t.Errorf("after reads: entries/bytes = %d/%d, want 1/2", m.Value("cache.entries"), m.Value("cache.bytes"))
	}
}

// TestPurgeQuarantine pins the startup sweep over stale quarantined
// entries: .corrupt files older than the TTL are removed and counted
// under cache.quarantine_purged; fresh quarantines — still useful for
// forensics — and live cache entries survive untouched.
func TestPurgeQuarantine(t *testing.T) {
	dir := t.TempDir()
	m := metrics.NewSynced()
	c, err := NewCache(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("aalive-json", []byte("good")); err != nil {
		t.Fatal(err)
	}

	shard := filepath.Join(dir, "qq")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shard, "qqold-json.corrupt")
	fresh := filepath.Join(shard, "qqnew-json.corrupt")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("corrupt bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if got := c.PurgeQuarantine(DefaultQuarantineTTL); got != 1 {
		t.Fatalf("PurgeQuarantine = %d, want 1", got)
	}
	if m.Value("cache.quarantine_purged") != 1 {
		t.Errorf("cache.quarantine_purged = %d, want 1", m.Value("cache.quarantine_purged"))
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale quarantine survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh quarantine was purged early: %v", err)
	}
	if v, ok := c.Get("aalive-json"); !ok || string(v) != "good" {
		t.Errorf("live entry lost: %q, %v", v, ok)
	}

	// Disabled sweeps are no-ops, as is a memory-only cache.
	if got := c.PurgeQuarantine(-1); got != 0 {
		t.Errorf("PurgeQuarantine(-1) = %d, want 0", got)
	}
	mem, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.PurgeQuarantine(DefaultQuarantineTTL); got != 0 {
		t.Errorf("memory-only PurgeQuarantine = %d, want 0", got)
	}
}
