package numeric

import "math"

// Event is a time point tagged with the index of the segment it
// belongs to: the unit of the event sweeps in check and sim.
type Event struct {
	At  float64
	Seg int32
}

// SortEvents orders ev by time with a stable LSD radix sort over the
// bytes of each time's order-preserving bit pattern, skipping the bytes
// all events share: linear in len(ev), and events at equal times keep
// their input order (-0 sorts before +0). tmp is scratch of ev's
// length.
func SortEvents(ev, tmp []Event) {
	if len(ev) < 2 {
		return
	}
	// key maps float order onto unsigned order: flip every bit of a
	// negative value and only the sign bit of a non-negative one.
	key := func(at float64) uint64 {
		b := math.Float64bits(at)
		if b>>63 != 0 {
			return ^b
		}
		return b | 1<<63
	}
	var counts [8][256]int
	for _, e := range ev {
		k := key(e.At)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := ev, tmp
	first := key(ev[0].At)
	for d := range counts {
		c := &counts[d]
		if c[byte(first>>(8*d))] == len(ev) {
			continue
		}
		off := 0
		for b, n := range c {
			c[b] = off
			off += n
		}
		for _, e := range src {
			b := byte(key(e.At) >> (8 * d))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ev[0] {
		copy(ev, src)
	}
}
