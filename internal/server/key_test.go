package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/canon"
	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// defaultOpts returns the paper's headline options via the builder.
func defaultOpts(t *testing.T) cascade.Options {
	t.Helper()
	opts, err := cascade.NewOptions()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestPointKeySemanticEquality pins the cache-key invariant that makes
// memoization sound: configurations with identical observable semantics
// hash equal however they were constructed.
func TestPointKeySemanticEquality(t *testing.T) {
	base, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}

	// Preset-built vs literal-built: the helper and a hand-spelled copy
	// of the same machine are the same machine.
	literal := machine.PentiumPro(4) // fields copied — a struct literal in effect
	lk, err := PointKey(literal, defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if lk != base {
		t.Error("copied config hashes differently")
	}

	// Engine choice is not observable: both engines produce bit-identical
	// results, so a cached result from either must satisfy both.
	refEng, err := PointKey(machine.PentiumPro(4).WithEngine(machine.EngineReference), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if refEng != base {
		t.Error("reference-engine config hashes differently from fast-engine config")
	}

	// Default-filled vs explicit: an Options with ChunkBytes left 0 (the
	// builder default) equals one spelling DefaultChunkBytes out.
	implicit := defaultOpts(t)
	implicit.ChunkBytes = 0
	ik, err := PointKey(machine.PentiumPro(4), implicit, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	explicit := defaultOpts(t)
	explicit.ChunkBytes = cascade.DefaultChunkBytes
	ek, err := PointKey(machine.PentiumPro(4), explicit, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if ik != ek || ik != base {
		t.Error("default-filled and explicit ChunkBytes hash differently")
	}
}

// TestPointKeyObservableChanges pins the converse invariant: any
// observable field change must produce a different key, else the cache
// serves wrong results.
func TestPointKeyObservableChanges(t *testing.T) {
	cfg := machine.PentiumPro(4)
	opts := defaultOpts(t)
	base, err := PointKey(cfg, opts, "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": base}
	check := func(label string, cfg machine.Config, opts cascade.Options, workload string) {
		t.Helper()
		k, err := PointKey(cfg, opts, workload)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		seen[label] = k
	}

	check("procs", cfg.WithProcs(3), opts, "parmvr")
	check("other machine", machine.R10000(8), opts, "parmvr")
	smallL2 := cfg
	smallL2.L2.Size /= 2
	check("L2 size", smallL2, opts, "parmvr")
	slowMem := cfg
	slowMem.MemLatency++
	check("memory latency", slowMem, opts, "parmvr")
	noTLB := cfg
	noTLB.TLB.Entries = 0
	check("TLB", noTLB, opts, "parmvr")

	chunk := opts
	chunk.ChunkBytes = 32 * 1024
	check("chunk size", cfg, chunk, "parmvr")
	noJump := opts
	noJump.JumpOut = false
	check("jump-out", cfg, noJump, "parmvr")
	helper := opts
	helper.Helper = cascade.HelperRestructure
	check("helper", cfg, helper, "parmvr")

	check("workload", cfg, opts, "parmvr@scale=0.5")
}

// Golden keys, generated once from the current canonical serialization.
// If one of these fails without an intentional semantic change, the key
// derivation drifted — previously cached results would silently stop
// matching (or worse, a lax canonicalization change could alias distinct
// configs). On an intentional change, bump keySchema and regenerate.
const (
	goldenPointKey = "c5ca8abeb40c3f7df796fd08baecf45bacc5bad0aa8adefe520c1b73d3fbb5cd"
	goldenJobKey   = "35ac2887283f1fa8d217bac7edfe08c01adf0718c9a6707107ddbdd5bdb4ec9d"
)

func TestGoldenKeys(t *testing.T) {
	pk, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if pk != goldenPointKey {
		t.Errorf("PointKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", pk, goldenPointKey)
	}
	jk, err := JobKey("fig2", JobParams{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jk != goldenJobKey {
		t.Errorf("JobKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", jk, goldenJobKey)
	}
}

// TestJobKeyParamResolution pins that job keys are derived from
// fully-resolved parameters: omitting a field and spelling its default
// out address the same cache entry, while changing any parameter or the
// experiment name moves to a different one.
func TestJobKeyParamResolution(t *testing.T) {
	implicit, err := JobKey("fig2", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := JobKey("fig2", DefaultJobParams())
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Error("zero params and explicit defaults hash differently")
	}
	scaled, err := JobKey("fig2", JobParams{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if scaled == implicit {
		t.Error("scale change did not change the job key")
	}
	otherExp, err := JobKey("fig6", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	if otherExp == implicit {
		t.Error("experiment name does not contribute to the job key")
	}
}

// freshJobKey is JobKey's derivation written out with nothing
// memoized: every preset and the default options serialized on the spot.
func freshJobKey(t *testing.T, experiment string, p JobParams) string {
	t.Helper()
	p = p.WithDefaults()
	p.TimeoutMS = 0
	pb, err := canon.JSON(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	io.WriteString(h, keySchema+"\x00job\x00"+experiment+"\x00")
	h.Write(pb)
	for _, cfg := range experiments.Machines() {
		cb, err := cfg.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append([]byte{0}, cb...))
	}
	ob, err := cascade.DefaultOptions(cascade.HelperPrefetch, nil).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(append([]byte{0}, ob...))
	return hex.EncodeToString(h.Sum(nil))
}

// TestJobKeyMemoPerParallelSetting pins that JobKey's memoized preset
// tail follows experiments.SetParallel: under either setting, and after
// switching back and forth, it equals an unmemoized derivation, and the
// two settings address different entries.
func TestJobKeyMemoPerParallelSetting(t *testing.T) {
	t.Cleanup(func() { experiments.SetParallel(false) })
	params := []JobParams{{}, {Scale: 0.01}, {ChunkKB: 16, N: 1 << 12}}
	keys := map[bool]string{}
	for _, par := range []bool{false, true, false, true} {
		experiments.SetParallel(par)
		for _, exp := range []string{"fig2", "quickstart"} {
			for _, p := range params {
				got, err := JobKey(exp, p)
				if err != nil {
					t.Fatal(err)
				}
				if want := freshJobKey(t, exp, p); got != want {
					t.Errorf("parallel=%v %s %+v: memoized key %s, fresh %s", par, exp, p, got, want)
				}
			}
		}
		keys[par], _ = JobKey("fig2", JobParams{})
	}
	if keys[false] == keys[true] {
		t.Error("parallel and serial job keys collide")
	}
}

func TestJobParamsValidate(t *testing.T) {
	if err := DefaultJobParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	for _, p := range []JobParams{
		{Scale: -1, ChunkKB: 64, N: 1024},
		{Scale: 1, ChunkKB: -1, N: 1024},
		{Scale: 1, ChunkKB: 64, N: -5},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
}

// TestJobKeyIgnoresTimeout pins that the execution deadline is not part
// of a job's identity: the deadline bounds how long a run may take, not
// what it computes, so jobs differing only in TimeoutMS share a cache
// entry and coalesce.
func TestJobKeyIgnoresTimeout(t *testing.T) {
	plain, err := JobKey("fig2", JobParams{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	timed, err := JobKey("fig2", JobParams{Scale: 0.5, TimeoutMS: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if plain != timed {
		t.Errorf("TimeoutMS changed the job key: %s vs %s", plain, timed)
	}
	if err := (JobParams{Scale: 1, ChunkKB: 64, N: 1024, TimeoutMS: -1}).Validate(); err == nil {
		t.Error("Validate accepted a negative TimeoutMS")
	}
}

// TestPointKeyCoalesceCanonicalization pins the run-coalescing knob's
// cache semantics: coalescing is an engine-internal batching that cannot
// change observable results, so CoalesceAuto (the zero value) and
// CoalesceOn hash identically to configs predating the knob — the golden
// key proves old cache entries stay addressable. CoalesceOff is kept
// distinguishable as the escape hatch for diagnosing a suspected
// coalescing bug: its results are equally valid, but forcing it must not
// be silently satisfied from a coalesced run's cache entry.
func TestPointKeyCoalesceCanonicalization(t *testing.T) {
	base, err := PointKey(machine.PentiumPro(4), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if base != goldenPointKey {
		t.Fatalf("base key drifted from golden: %s", base)
	}
	auto, err := PointKey(machine.PentiumPro(4).WithCoalesce(machine.CoalesceAuto), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if auto != base {
		t.Error("CoalesceAuto hashes differently from the pre-knob golden key")
	}
	on, err := PointKey(machine.PentiumPro(4).WithCoalesce(machine.CoalesceOn), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if on != base {
		t.Error("CoalesceOn hashes differently from the pre-knob golden key")
	}
	off, err := PointKey(machine.PentiumPro(4).WithCoalesce(machine.CoalesceOff), defaultOpts(t), "parmvr")
	if err != nil {
		t.Fatal(err)
	}
	if off == base {
		t.Error("CoalesceOff hashes identically to the default; the diagnostic escape hatch is not cache-distinguishable")
	}
}

// Golden checkpoint-derived keys: the (prefix, tail) composition must be
// stable for the same reason the point and job keys must — streams and
// resume results are shared across jobs by these addresses.
const (
	goldenCheckpointKey = "869d87e74cbe27fd684a2bd90d142a5ef68a1289c4a7bbbf517e8e9f799d3148"
	goldenResumeKey     = "a83a22a7ad820e617dfcc896161e8048a3b1a486ed2575d39820c3a856bffea0"
)

// TestCheckpointKeyGolden pins the checkpoint-stream and resume-result
// key derivations and their prefix/tail discrimination: the job key is
// the prefix, the cadence (or checkpoint index) the tail, and changing
// either moves to a different address.
func TestCheckpointKeyGolden(t *testing.T) {
	ck := CheckpointKey(goldenJobKey, 0)
	if ck != goldenCheckpointKey {
		t.Errorf("CheckpointKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", ck, goldenCheckpointKey)
	}
	rk := ResumeKey(ck, 0)
	if rk != goldenResumeKey {
		t.Errorf("ResumeKey drifted:\n got %s\nwant %s\n(bump keySchema if this change is intentional)", rk, goldenResumeKey)
	}
	if CheckpointKey(goldenJobKey, 1000) == ck {
		t.Error("cadence does not contribute to the checkpoint key")
	}
	if CheckpointKey(goldenPointKey, 0) == ck {
		t.Error("prefix job key does not contribute to the checkpoint key")
	}
	if ResumeKey(ck, 1) == rk {
		t.Error("checkpoint index does not contribute to the resume key")
	}
	if ResumeKey(CheckpointKey(goldenJobKey, 1000), 0) == rk {
		t.Error("stream key does not contribute to the resume key")
	}
}
