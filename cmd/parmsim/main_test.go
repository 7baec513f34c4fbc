package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		dspb float64
		ok   bool
	}{
		{65, true},
		{0.5, true},
		{0, false},
		{-5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		err := checkFlags(tc.dspb)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%g) error = %v, want ok=%v", tc.dspb, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-dspb") {
			t.Errorf("checkFlags(%g) error %q does not name the flag", tc.dspb, err)
		}
	}
}
