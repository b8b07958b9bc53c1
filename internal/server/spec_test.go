package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ndmesh"
	"ndmesh/internal/traffic"
)

// recordedTrace builds a tiny NDWT trace for replay specs.
func recordedTrace(t testing.TB) []byte {
	t.Helper()
	var tr traffic.Trace
	_, err := ndmesh.LoadRun(ndmesh.LoadOptions{
		Dims: []int{4, 4}, Router: "limited", Pattern: "uniform",
		Rate: 0.1, Warmup: 8, Measure: 24, Drain: 32, Seed: 11,
		Record: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Marshal()
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"open-loop"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Dims, []int{8, 8}) || s.Lambda != 1 ||
		!reflect.DeepEqual(s.Routers, []string{"limited"}) ||
		!reflect.DeepEqual(s.Patterns, []string{"uniform"}) ||
		len(s.Rates) == 0 || s.Process != "bernoulli" ||
		s.Warmup != 64 || s.Measure != 256 || s.Drain != 256 || s.LinkRate != 1 {
		t.Fatalf("defaults not folded in: %+v", s)
	}
}

func TestParseSpecRejections(t *testing.T) {
	for name, body := range map[string]string{
		"empty":             `{}`,
		"unknown-kind":      `{"kind":"sideways"}`,
		"unknown-field":     `{"kind":"open-loop","bogus":1}`,
		"trailing-data":     `{"kind":"open-loop"}{"kind":"open-loop"}`,
		"not-json":          `kind=open-loop`,
		"negative-phase":    `{"kind":"open-loop","warmup":-1}`,
		"phase-overflow":    `{"kind":"open-loop","warmup":4611686018427387904,"measure":4611686018427387904,"drain":4611686018427387904}`,
		"huge-dim":          `{"kind":"open-loop","dims":[1099511627776,1099511627776]}`,
		"too-many-nodes":    `{"kind":"open-loop","dims":[512,512]}`,
		"too-many-dims":     `{"kind":"open-loop","dims":[2,2,2,2,2,2,2,2,2]}`,
		"dim-too-small":     `{"kind":"open-loop","dims":[1,8]}`,
		"negative-rate":     `{"kind":"open-loop","rates":[-0.1]}`,
		"huge-faults":       `{"kind":"open-loop","faults":1073741824}`,
		"trials-over":       `{"kind":"reliability","trials":5000}`,
		"windows-open-loop": `{"kind":"open-loop","windows":[4]}`,
		"rates-closed-loop": `{"kind":"closed-loop","rates":[0.1]}`,
		"replay-no-trace":   `{"kind":"replay"}`,
		"replay-bad-trace":  `{"kind":"replay","trace":"bm90IGEgdHJhY2U="}`,
		"trace-off-replay":  `{"kind":"open-loop","trace":"AAAA"}`,
		"probe-multi-cell":  `{"kind":"open-loop","rates":[0.1,0.2],"probe":true}`,
		"probe-reliability": `{"kind":"reliability","probe":true}`,
		"bad-lambda":        `{"kind":"open-loop","lambda":1000}`,
		"workers-over":      `{"kind":"open-loop","workers":1000}`,
		"shards":            `{"kind":"open-loop","shards":2}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(body)); err == nil {
				t.Fatalf("ParseSpec accepted %s", body)
			}
		})
	}
}

func TestParseSpecReplay(t *testing.T) {
	trace := recordedTrace(t)
	body, err := json.Marshal(map[string]any{"kind": "replay", "trace": trace, "seed": 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Routers, []string{"limited"}) || s.cells() != 1 {
		t.Fatalf("replay spec normalized wrong: %+v", s)
	}

	// Workload fields on a replay spec are contradictions, not hints.
	bad, _ := json.Marshal(map[string]any{"kind": "replay", "trace": trace, "measure": 100})
	if _, err := ParseSpec(bad); err == nil {
		t.Fatal("replay spec with its own phases accepted")
	}
}

// TestSpecKeyContract pins the cache-key semantics the daemon's cache
// tests then observe over HTTP: key-order/whitespace insensitivity,
// omitted-vs-explicit defaults merging, Workers exclusion, and
// splits on anything that can reach the rows.
func TestSpecKeyContract(t *testing.T) {
	key := func(body string) string {
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", body, err)
		}
		return s.Key()
	}
	base := key(`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9}`)
	same := []string{
		`{"seed":9,"rates":[0.1],"dims":[4,4],"kind":"open-loop"}`,                            // key order
		"{\n  \"kind\": \"open-loop\", \"dims\": [4, 4],\n  \"rates\": [0.1], \"seed\": 9\n}", // whitespace
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"lambda":1}`,                 // explicit default
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"workers":7}`,                // fan-out width
	}
	for i, body := range same {
		if key(body) != base {
			t.Errorf("equivalent spec %d keyed differently", i)
		}
	}
	different := []string{
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":10}`,             // seed
		`{"kind":"open-loop","dims":[4,4],"rates":[0.2],"seed":9}`,              // workload
		`{"kind":"open-loop","dims":[4,6],"rates":[0.1],"seed":9}`,              // shape
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"lambda":2}`,   // engine config
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"faults":2}`,   // fault overlay
		`{"kind":"open-loop","dims":[4,4],"rates":[0.1],"seed":9,"probe":true}`, // probe attachment
	}
	for i, body := range different {
		if key(body) == base {
			t.Errorf("distinct spec %d shares the base key", i)
		}
	}
}

// TestParseSpecCanonicalIdempotent: re-parsing a canonical spec's own
// marshaling yields the identical struct and key — the property the fuzz
// harness then hammers with arbitrary inputs.
func TestParseSpecCanonicalIdempotent(t *testing.T) {
	for _, body := range []string{
		`{"kind":"open-loop"}`,
		`{"kind":"closed-loop","windows":[1,4],"dims":[4,4]}`,
		`{"kind":"reliability","fault_rates":[0,0.01],"trials":4}`,
	} {
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical form of %s does not re-parse: %v", body, err)
		}
		if !reflect.DeepEqual(s, s2) || s.Key() != s2.Key() {
			t.Fatalf("canonicalization not idempotent for %s", body)
		}
	}
}

// TestSpecKeyPinned pins the hex cache key of one open-loop and one
// reliability spec, so a change to the Spec struct that silently re-keys
// every cached result (a renamed field, a reordered one, a dropped
// omitempty) fails here instead of emptying a running daemon's cache.
func TestSpecKeyPinned(t *testing.T) {
	for body, want := range map[string]string{
		`{"kind":"open-loop","dims":[8,8],"routers":["limited","blind"],"patterns":["uniform","transpose"],"rates":[0.05,0.2],"warmup":16,"measure":64,"drain":96,"node_capacity":4,"faults":3,"fault_interval":20,"seed":42,"workers":3}`: "55125b5b1fe113e2d02a0f94f17f27eb737a7b35913183f80c1df826e9b2d5f6",
		`{"kind":"reliability","dims":[6,6,6],"fault_rates":[0,0.01,0.04],"trials":8,"fault_model":"weibull","fault_shape":1.5,"fault_repair":0.1,"seed":7}`:                                                                               "400297482aab2c2d78d64aa4080dd9e3d3d0e169534a6160ddfefd76b4551712",
	} {
		s, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", body, err)
		}
		if got := s.Key(); got != want {
			t.Errorf("Key(%s) = %s, want %s", body, got, want)
		}
	}
}

// FuzzSpecDecode hammers the decoder with arbitrary bytes: it must never
// panic, never accept a spec it cannot canonicalize idempotently, and
// never produce a spec whose Key diverges from its own round trip. The
// seeded corpus covers every kind and the bound edges; CI runs the
// corpus on every test run and a short fuzz session on top.
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"kind":"open-loop"}`,
		`{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"seed":42,"workers":2}`,
		`{"kind":"closed-loop","windows":[1,2,4],"node_capacity":4,"flight_timeout":32}`,
		`{"kind":"reliability","fault_rates":[0,0.01,0.04],"trials":8,"fault_model":"weibull","fault_shape":1.5}`,
		`{"kind":"replay","trace":"TkRXVA=="}`,
		`{"kind":"open-loop","probe":true,"rates":[0.1]}`,
		`{"kind":"open-loop","warmup":1048576,"measure":1,"drain":0}`,
		`{"kind":"open-loop","dims":[65536]}`,
		`{"kind":"open-loop","rates":[1e308]}`,
		`{"kind":"open-loop","seed":18446744073709551615}`,
		`[1,2,3]`,
		`"open-loop"`,
		strings.Repeat(`{"kind":`, 1000),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Accepted specs must be fully canonical: marshal → parse is a
		// fixed point, and the cache key survives the round trip.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("canonical spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical spec does not re-parse: %v\nspec: %s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("canonicalization not idempotent:\n first: %+v\nsecond: %+v", s, s2)
		}
		if s.Key() != s2.Key() {
			t.Fatal("cache key changed across canonical round trip")
		}
		if c := s.cells(); c < 1 || c > maxList*maxList*maxList {
			t.Fatalf("cells() = %d out of bounds", c)
		}
	})
}
