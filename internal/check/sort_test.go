package check

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortEvents checks the radix sort against a comparison sort on
// times of both signs, zeros of both signs, and magnitudes far apart.
func TestSortEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []float64{0, math.Copysign(0, -1), -1e300, 1e300, -5e-324, 5e-324, 1, -1, 1, 0.5}
	for _, n := range []int{0, 1, 2, len(fixed), 1000} {
		ev := make([]event, n)
		for i := range ev {
			at := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
			if i < len(fixed) && n == len(fixed) {
				at = fixed[i]
			}
			ev[i] = event{at, int32(i)}
		}
		got := append([]event(nil), ev...)
		sortEvents(got, make([]event, n))
		want := slices.Clone(ev)
		slices.SortStableFunc(want, func(a, b event) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			}
			return 0
		})
		for i := range want {
			if got[i].at != want[i].at {
				t.Fatalf("n=%d: position %d holds %v, want %v", n, i, got[i].at, want[i].at)
			}
		}
		seen := make([]bool, n)
		for _, e := range got {
			seen[e.seg] = true
		}
		if slices.Contains(seen, false) {
			t.Fatalf("n=%d: sort lost or duplicated an event", n)
		}
	}
}
