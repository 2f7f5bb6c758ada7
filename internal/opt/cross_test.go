package opt_test

// Cross-package checks that would form an in-package import cycle
// (core → check → opt): the solver against the paper's heuristics, the
// exported brute force against the solver, and the realized optimal
// schedule against the universal validator.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/task"
)

func TestOptimalNeverAboveHeuristics(t *testing.T) {
	// E^opt must lower-bound the paper's heuristics (up to solver gap).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(15))
		m := 2 + rng.Intn(4)
		pm := power.Unit(2+rng.Float64(), rng.Float64()*0.2)
		d := interval.MustDecompose(ts, 0)
		sol := opt.MustSolve(d, m, pm, opt.Options{})
		suite, err := core.RunSuite(ts, m, pm, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		slack := sol.Gap + 1e-6*sol.Energy
		if sol.Energy > suite.Even.FinalEnergy+slack {
			t.Errorf("trial %d: E^opt %.6f > E^F1 %.6f", trial, sol.Energy, suite.Even.FinalEnergy)
		}
		if sol.Energy > suite.DER.FinalEnergy+slack {
			t.Errorf("trial %d: E^opt %.6f > E^F2 %.6f", trial, sol.Energy, suite.DER.FinalEnergy)
		}
		// The universal validator must clear both realized heuristics.
		if vs := check.Validate(suite.Even.Final, ts, m, pm); len(vs) > 0 {
			t.Fatalf("trial %d: F1 fails the universal validator: %v", trial, vs[0])
		}
		if vs := check.Validate(suite.DER.Final, ts, m, pm); len(vs) > 0 {
			t.Fatalf("trial %d: F2 fails the universal validator: %v", trial, vs[0])
		}
	}
}

// TestBruteAgreesWithSolver pits the two independent optimum finders —
// multi-resolution grid search over the polymatroid projection vs
// Frank-Wolfe over the allocation polytope — against each other.
func TestBruteAgreesWithSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(3)
		pm := power.Unit(2+rng.Float64(), rng.Float64()*0.2)
		ts := task.MustGenerate(rng, task.PaperDefaults(n))
		d := interval.MustDecompose(ts, 0)
		sol := opt.MustSolve(d, m, pm, opt.Options{MaxIterations: 8000, RelGap: 1e-8})
		brute, err := opt.Brute(d, m, pm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute returns a feasible value, so it can exceed the optimum by
		// its grid tolerance but never undershoot the certified bound.
		if brute < sol.Energy-sol.Gap-1e-9 {
			t.Errorf("trial %d (n=%d m=%d): brute %.8f below certified bound %.8f",
				trial, n, m, brute, sol.Energy-sol.Gap)
		}
		if brute > sol.Energy*(1+opt.BruteTolerance)+sol.Gap {
			t.Errorf("trial %d (n=%d m=%d): brute %.8f above solver %.8f beyond tolerance",
				trial, n, m, brute, sol.Energy)
		}
	}
}

func TestBruteSectionVD(t *testing.T) {
	d := interval.MustDecompose(task.SectionVDExample(), 0)
	pm := power.Unit(3, 0)
	sol := opt.MustSolve(d, 4, pm, opt.Options{MaxIterations: 8000, RelGap: 1e-8})
	brute, err := opt.Brute(d, 4, pm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(brute-sol.Energy) > opt.BruteTolerance*sol.Energy+sol.Gap {
		t.Errorf("brute %.6f vs solver %.6f on the worked example", brute, sol.Energy)
	}
}

func TestBruteInputValidation(t *testing.T) {
	big := task.MustGenerate(rand.New(rand.NewSource(1)), task.PaperDefaults(opt.BruteMaxTasks+1))
	d := interval.MustDecompose(big, 0)
	if _, err := opt.Brute(d, 2, power.Unit(3, 0)); err == nil {
		t.Errorf("brute accepted %d tasks (max %d)", len(big), opt.BruteMaxTasks)
	}
	small := interval.MustDecompose(task.Fig1Example(), 0)
	if _, err := opt.Brute(small, 0, power.Unit(3, 0)); err == nil {
		t.Error("brute accepted m=0")
	}
	if _, err := opt.Brute(small, 2, power.Model{Gamma: 1, Alpha: 1}); err == nil {
		t.Error("brute accepted a non-convex power model")
	}
}

// TestRealizedOptimumPassesValidator runs the convex solution through
// Realize and the universal validator, with the solver's energy as the
// reported value the re-integration must reproduce.
func TestRealizedOptimumPassesValidator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := task.MustGenerate(rng, task.PaperDefaults(10))
	pm := power.Unit(3, 0.1)
	d := interval.MustDecompose(ts, 0)
	sol := opt.MustSolve(d, 3, pm, opt.Options{})
	sched, err := opt.Realize(d, 3, pm, sol)
	if err != nil {
		t.Fatal(err)
	}
	opts := check.DefaultOptions()
	opts.ReportedEnergy = sol.Energy
	opts.EnergyTol = 1e-4 // Realize matches the solver up to packing float noise
	audit, err := check.Audit(context.Background(), sched, ts, 3, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("realized optimum fails the validator: %v", audit.Violations[0])
	}
}
