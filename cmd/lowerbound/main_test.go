package main

import "testing"

// TestBoundLine: a feasible bound prints its efficiency; a saturated
// model (waste >= 1) says so instead of printing a negative efficiency.
func TestBoundLine(t *testing.T) {
	for _, tc := range []struct {
		waste float64
		want  string
	}{
		{0.25, "0.2500 (efficiency 75.0%)"},
		{0, "0.0000 (efficiency 100.0%)"},
		{1, "1.0000 (saturated: waste >= 1, no feasible efficiency)"},
		{1.5382, "1.5382 (saturated: waste >= 1, no feasible efficiency)"},
	} {
		if got := boundLine(tc.waste); got != tc.want {
			t.Errorf("boundLine(%v) = %q, want %q", tc.waste, got, tc.want)
		}
	}
}
