package faults

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzPlanRoundTrip: any input Parse accepts is a plan whose JSON encoding
// parses back to an equal plan and re-encodes to the same bytes, and
// validating it against any world size returns rather than panics.
func FuzzPlanRoundTrip(f *testing.F) {
	for _, p := range []*Plan{Canonical(1), CanonicalCrash(1)} {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{
		"seed": 7, "max_retries": 2, "retry_timeout_ns": 1000,
		"rules": [
			{"kind": "drop", "layer": "mpi", "class": 2, "prob": 0.25, "max_count": 3},
			{"kind": "reorder", "src": 0, "dst": 5, "from_ns": 10, "until_ns": 900, "prob": 1, "delay_ns": 40}
		],
		"crashes": [{"image": 1, "at_ns": 50000}],
		"stalls": [{"image": 0, "at_ns": 100, "dur_ns": 400}]
	}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("encoding a parsed plan: %v", err)
		}
		q, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", enc, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", q, p)
		}
		enc2, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, enc2)
		}
		for _, n := range []int{1, 8, 1024} {
			_ = p.Validate(n)
		}
	})
}
