package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/check"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// The paper's Section V.D example (m = 4, p(f) = f³) must reproduce its
// published energies through HTTP before anything is timed.
var golden = []struct {
	algorithm string
	energy    float64
}{{"S^F1", 33.0642}, {"S^F2", 31.8362}}

const goldenTol = 1e-3

// ratioBudget is the fixed Frank-Wolfe iteration budget of the off-clock
// E^opt solves behind the one-shot energy_ratio. Its E^opt is an upper
// bound on the optimum, so the ratio is a slight underestimate.
const ratioBudget = 1000

// preflight checks the golden example through the front of the stack.
func (b *bench) preflight(ctx context.Context, c *http.Client) {
	ts := task.SectionVDExample()
	pm := power.Model{Gamma: 1, Alpha: 3}
	for _, g := range golden {
		body, err := json.Marshal(wire.ScheduleRequest{Algorithm: g.algorithm, Cores: 4, Model: wire.ModelJSON{Alpha: 3}, Tasks: ts})
		if err != nil {
			b.op(err)
			continue
		}
		_, full, err := sendSchedule(ctx, c, b.st.front, g.algorithm, body, true)
		if err == nil && math.Abs(full.Energy-g.energy) > goldenTol {
			err = fmt.Errorf("preflight: %s energy %.6f, paper Section V.D reports %.4f", g.algorithm, full.Energy, g.energy)
		}
		if err == nil {
			err = validateWire(full.Segments, ts, 4, pm, full.Energy)
		}
		b.op(err)
	}
}

// toSchedule rebuilds a schedule from its wire segments.
func toSchedule(segs []wire.SegmentJSON, ts task.Set, m int) *schedule.Schedule {
	s := schedule.New(ts, m)
	s.Grow(len(segs))
	for _, seg := range segs {
		s.Add(schedule.Segment{Task: seg.Task, Core: seg.Core, Start: seg.Start, End: seg.End, Frequency: seg.Frequency})
	}
	return s
}

// validateWire runs the full universal validator on a returned schedule
// and recomputes its energy.
func validateWire(segs []wire.SegmentJSON, ts task.Set, m int, pm power.Model, energy float64) error {
	s := toSchedule(segs, ts, m)
	if v := check.Validate(s, ts, m, pm); len(v) > 0 {
		return fmt.Errorf("client-side validation: %v (+%d more)", v[0], len(v)-1)
	}
	if got := s.Energy(pm); math.Abs(got-energy) > 1e-6*math.Max(1, math.Abs(energy)) {
		return fmt.Errorf("energy recompute %.9g != reported %.9g", got, energy)
	}
	return nil
}

// checkSample fully checks the kept responses of insts, the run's first
// instances, off the clock and returns their E/E^opt.
func (b *bench) checkSample(insts []task.Set, sample []*wire.ScheduleResponse, m int, pm power.Model) []float64 {
	var ratios []float64
	for i := range insts {
		resp := sample[i]
		if resp == nil {
			continue // its request already failed and was counted
		}
		if err := validateWire(resp.Segments, insts[i], m, pm, resp.Energy); err != nil {
			b.fail("instance %d: %v", i, err)
			continue
		}
		id := b.rec.begin("opt.solve", i, 0)
		eopt, err := optimum(insts[i], m, pm, ratioBudget)
		b.rec.end(id)
		if err != nil {
			b.fail("instance %d: %v", i, err)
			continue
		}
		ratios = append(ratios, resp.Energy/eopt)
	}
	if len(ratios) == 0 {
		b.fail("no sampled instance could be checked")
	}
	return ratios
}

// optimum solves the clairvoyant convex optimum of ts (maxIter 0 keeps
// the solver's default budget).
func optimum(ts task.Set, m int, pm power.Model, maxIter int) (float64, error) {
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return 0, err
	}
	sol, err := opt.Solve(d, m, pm, opt.Options{MaxIterations: maxIter})
	if err != nil {
		return 0, err
	}
	if !(sol.Energy > 0) {
		return 0, fmt.Errorf("optimum energy %v", sol.Energy)
	}
	return sol.Energy, nil
}
