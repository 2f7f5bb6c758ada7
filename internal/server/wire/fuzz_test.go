package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzAppendSchedule builds a ScheduleResponse from raw float bits,
// arbitrary strings and random omitempty/nil choices, and requires
// AppendSchedule to write exactly the bytes encoding/json writes, or
// to fail exactly when it fails (a NaN or infinite float).
func FuzzAppendSchedule(f *testing.F) {
	le := binary.LittleEndian
	seed := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("S^F2", "", "", seed(31.8362, 20, 22, 0.25, 0, 8, 0.8, 8, 10, 1), uint64(0x0403_ff))
	f.Add("S^F1", "S^F1", "task 3 missed", seed(1e-7, 1e21, -0.0, 5e-324), uint64(0x1000_1f))
	f.Add("<&> ", "\xff\x00\"\\", "\n\t", seed(math.NaN()), uint64(0x02_0a))
	f.Add("", "", "", seed(math.Inf(-1), 1), uint64(0x01_ff))
	f.Fuzz(func(t *testing.T, algorithm, fallback, violation string, raw []byte, flags uint64) {
		vals := make([]float64, 0, len(raw)/8+1)
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(le.Uint64(raw)))
		}
		if len(vals) == 0 {
			vals = append(vals, 0)
		}
		// Indexing with a stride re-uses values, so the memo sees hits.
		k := 0
		next := func() float64 { k++; return vals[(k*7)%len(vals)] }
		bit := func(i uint) bool { return flags&(1<<i) != 0 }

		r := &ScheduleResponse{
			Algorithm: algorithm, Cores: int(int8(flags >> 24)),
			Energy: next(), BusyTime: next(), Makespan: next(), ElapsedMS: next(),
			Verified: bit(0), Cached: bit(1), Degraded: bit(2),
		}
		if bit(3) {
			r.Version = Version
		}
		if bit(4) {
			r.FallbackAlgorithm = fallback
		}
		if bit(5) {
			r.Segments = []SegmentJSON{}
		}
		for i := 0; i < int(flags>>8&0xff); i++ {
			r.Segments = append(r.Segments, SegmentJSON{
				Task: i - 2, Core: int(int8(flags>>32)) + i,
				Start: next(), End: next(), Frequency: next(),
			})
		}
		if bit(6) {
			sim := &SimReportJSON{
				Energy: next(), Horizon: next(),
				Preemptions: int(int16(flags >> 40)), Migrations: int(flags >> 56), Wakeups: len(violation),
			}
			if bit(7) {
				sim.CoreBusy = []float64{}
				for i := 0; i < int(flags>>48&7); i++ {
					sim.CoreBusy = append(sim.CoreBusy, next())
					sim.Utilization = append(sim.Utilization, next())
				}
			}
			if bit(20) {
				sim.Violations = []string{}
			}
			if bit(21) {
				sim.Violations = append(sim.Violations, violation, algorithm)
			}
			r.Sim = sim
		}
		assertSame(t, "fuzz", r)
	})
}
