package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/canon"
	"repro/internal/experiments"
)

// FuzzPointKeyWire decodes arbitrary POST /v1/points bodies as the
// handler does and checks, for every spec that decodes, that the point
// key a worker derives does not depend on the form it holds the spec
// in: the decoded struct, the struct re-marshalled and decoded again
// (what the coordinator sends), and that wire form decoded into generic
// maps must all hash to one key.
func FuzzPointKeyWire(f *testing.F) {
	for _, name := range []string{"fig2", "fig6", "warmsweep"} {
		specs, ok := experiments.Decompose(name, experiments.DefaultRunConfig())
		if !ok {
			f.Fatalf("experiment %q not decomposable", name)
		}
		items := make([]pointRequestItem, len(specs))
		for i := range specs {
			b, err := json.Marshal(pointRequest{Point: &specs[i]})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			items[i] = pointRequestItem{Point: &specs[i]}
		}
		b, err := json.Marshal(pointRequest{Points: items})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodePointRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		specs := []*experiments.PointSpec{req.Point}
		for _, it := range req.Points {
			specs = append(specs, it.Point)
		}
		for _, spec := range specs {
			if spec == nil {
				continue
			}
			key, err := canon.PointKey(*spec)
			if err != nil {
				t.Fatalf("key of a decoded spec: %v", err)
			}
			wire, err := json.Marshal(*spec)
			if err != nil {
				t.Fatal(err)
			}
			var again experiments.PointSpec
			if err := json.Unmarshal(wire, &again); err != nil {
				t.Fatalf("re-decode %s: %v", wire, err)
			}
			var generic map[string]interface{}
			if err := json.Unmarshal(wire, &generic); err != nil {
				t.Fatalf("generic decode %s: %v", wire, err)
			}
			for form, v := range map[string]interface{}{"re-decoded": again, "generic": generic} {
				k, err := canon.PointKey(v)
				if err != nil {
					t.Fatalf("%s key: %v", form, err)
				}
				if k != key {
					t.Fatalf("%s form of %s keys to %s, struct to %s", form, wire, k, key)
				}
			}
		}
	})
}
