package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenSweeps is the SHA-256 of each sweep's compacted JSON result at
// scale 0.02 with every other knob at its default (cascade-sim -exp
// <name> -json -scale 0.02, passed through json.Compact). The values are
// the benchmark's (perfbench/sweeps.go); the two must move together,
// and only with a change that is meant to change the simulation.
var goldenSweeps = map[string]string{
	"fig2":      "80b548a0518780a36f3dd71a725e4c624d2cdd7f12e7a22994d02d3e781a9e78",
	"fig6":      "ffa843c362af92ae3685689c82b4bc281f9d8fff5736ed8b24e6d60b54fa9565",
	"warmsweep": "00822bd5c03549d243064cbd7775b18993ee1c0264316225ffa6d4f0eddb219d",
}

// TestSweepGoldenBytes pins the bytes of the decomposed sweeps as the
// registry runs them. A single-node run and a fleet run share Points,
// Run and Merge, so this one hash per sweep guards both.
func TestSweepGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweeps")
	}
	for _, name := range []string{"fig2", "fig6", "warmsweep"} {
		// json.Marshal emits exactly the compacted form of the indented
		// rendering.
		b, err := json.Marshal(runRegistered(t, name, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != goldenSweeps[name] {
			t.Errorf("%s result hashes to %s, golden is %s", name, got, goldenSweeps[name])
		}
	}
}
