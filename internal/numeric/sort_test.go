package numeric

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortEvents checks the radix sort against a stable comparison sort
// on times of both signs, zeros of both signs, magnitudes far apart and
// runs of equal times: the orders must agree event for event, so equal
// times keep their input order.
func TestSortEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []float64{0, math.Copysign(0, -1), -1e300, 1e300, -5e-324, 5e-324, 1, -1, 1, 0.5}
	for _, n := range []int{0, 1, 2, len(fixed), 1000} {
		ev := make([]Event, n)
		for i := range ev {
			at := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
			if i%7 == 3 {
				at = ev[rng.Intn(i)].At // a tie with an earlier event
			}
			if i < len(fixed) && n == len(fixed) {
				at = fixed[i]
			}
			ev[i] = Event{at, int32(i)}
		}
		got := slices.Clone(ev)
		SortEvents(got, make([]Event, n))
		want := slices.Clone(ev)
		slices.SortStableFunc(want, func(a, b Event) int {
			// The radix order is the bit-pattern order: -0 before +0.
			ka, kb := a.At, b.At
			if ka == 0 && kb == 0 {
				ka, kb = math.Copysign(1, ka), math.Copysign(1, kb)
			}
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			}
			return 0
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d holds %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}
