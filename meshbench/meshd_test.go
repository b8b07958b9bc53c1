package main

import (
	"reflect"
	"testing"

	"ndmesh/internal/server"
)

// TestScriptDeterministicInSeed checks that the meshd-mix script is a
// function of the workload seed alone, and that a different seed draws a
// different script.
func TestScriptDeterministicInSeed(t *testing.T) {
	a, err := newScript(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newScript(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two scripts from seed 7 differ")
	}
	c, err := newScript(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 drew the same script")
	}
}

// TestScriptShape checks the structure the hit/miss mix relies on: each
// set submits every catalogue spec once first, repeats follow the
// submission they wait for, the two sets never share a spec, and each set
// holds more distinct specs than the cache.
func TestScriptShape(t *testing.T) {
	sets, err := newScript(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(catalogue) <= meshdCacheEntries {
		t.Fatalf("catalogue of %d specs fits the %d-entry cache: nothing would be evicted", len(catalogue), meshdCacheEntries)
	}
	keys := map[string]bool{}
	for s, set := range sets {
		firsts, repeats := 0, 0
		for i, j := range set.jobs {
			switch {
			case j.after < 0:
				firsts++
			case j.after >= i || set.jobs[j.after].spec != j.spec || set.jobs[j.after].after >= 0:
				t.Errorf("set %d job %d waits on job %d, not an earlier first submission of its spec", s, i, j.after)
			default:
				repeats++
			}
		}
		wantRepeats := 0
		for _, tm := range catalogue {
			wantRepeats += tm.repeats
		}
		if firsts != len(catalogue) || repeats != wantRepeats {
			t.Errorf("set %d: %d first submissions and %d repeats, want %d and %d", s, firsts, repeats, len(catalogue), wantRepeats)
		}
		for _, js := range set.specs {
			parsed, err := server.ParseSpec(js.body)
			if err != nil {
				t.Fatalf("set %d %s: %v", s, js.name, err)
			}
			if !reflect.DeepEqual(*parsed, js.spec) {
				t.Errorf("set %d %s: the server canonicalizes the spec differently from the one sent", s, js.name)
			}
			k := parsed.Key() + ":" + js.format
			if keys[k] {
				t.Errorf("set %d %s: cache key repeats across the script", s, js.name)
			}
			keys[k] = true
		}
	}
}
