package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		figs          string
		apps          int
		ok            bool
		wantSelection []string
	}{
		{"all", 20, true, []string{"all"}},
		{"1, 3a,3b", 20, true, []string{"1", "3a", "3b"}},
		{"6", 0, false, nil},
		{"6", -3, false, nil},
		{"reliability", 20, false, nil},
		{"9", 20, false, nil},
		{"3c", 20, false, nil},
		{"6,", 20, false, nil},
		{"", 20, false, nil},
	} {
		want, err := checkFlags(tc.figs, tc.apps)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %d) error = %v, want ok=%v", tc.figs, tc.apps, err, tc.ok)
			continue
		}
		if len(want) != len(tc.wantSelection) {
			t.Errorf("checkFlags(%q) selected %v, want %v", tc.figs, want, tc.wantSelection)
		}
		for _, f := range tc.wantSelection {
			if !want[f] {
				t.Errorf("checkFlags(%q) did not select %q", tc.figs, f)
			}
		}
	}
}
