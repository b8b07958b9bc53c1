package cliutil

import (
	"reflect"
	"testing"
)

// TestParseRates pins the rate-list parser: positive finite rates parse in
// order, and everything a load run could not offer honestly is refused at
// the flag, including the NaN and Inf spellings strconv accepts.
func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
	}{
		{"0.05", []float64{0.05}},
		{"0.05, 0.35,1.5", []float64{0.05, 0.35, 1.5}},
		{"1e-3", []float64{0.001}},
	} {
		got, err := ParseRates(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRates(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"", "0", "-0.1", "abc", "NaN", "nan", "Inf", "+Inf", "-Inf", "0.1,NaN", "1e400"} {
		if got, err := ParseRates(in); err == nil {
			t.Errorf("ParseRates(%q) = %v, want an error", in, got)
		}
	}
}
