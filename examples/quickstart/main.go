// Quickstart: schedule a handful of aperiodic tasks on a quad-core DVFS
// processor with the paper's DER-based subinterval heuristic, inspect the
// resulting Gantt chart, and compare against the convex optimum.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/easched"
)

func main() {
	// The worked example of the paper (Section V.D): six tasks, written
	// as T(release, work, deadline).
	tasks := easched.MustTasks(
		easched.T(0, 8, 10),
		easched.T(2, 14, 18),
		easched.T(4, 8, 16),
		easched.T(6, 4, 14),
		easched.T(8, 10, 20),
		easched.T(12, 6, 22),
	)

	// A cubic dynamic power model without static power: p(f) = f³.
	model := easched.NewModel(3, 0)

	// Run both allocation methods on four cores; the DER solve also
	// solves the convex program for the optimum (Compare).
	ctx := context.Background()
	spec := easched.Spec{Tasks: tasks, Cores: 4, Model: model, Method: easched.MethodEven}
	evenRep, err := easched.Solve(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Method, spec.Compare = easched.MethodDER, true
	derRep, err := easched.Solve(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	even, der := evenRep.Plan, derRep.Plan
	fmt.Printf("evenly allocating method: E = %.4f\n", even.FinalEnergy)
	fmt.Printf("DER-based method:         E = %.4f\n\n", der.FinalEnergy)

	fmt.Println("DER-based final schedule:")
	fmt.Print(der.Final.Gantt(72))

	// Per-task frequency settings chosen by the final refinement.
	fmt.Println("\nfinal frequency settings:")
	for i, f := range der.FinalFrequencies {
		fmt.Printf("  τ%d: f = %.4f (available time %.3f)\n", i+1, f, der.AvailableTime[i])
	}

	// How close is the lightweight heuristic to the true optimum?
	fmt.Printf("\nconvex optimum E^opt = %.4f → NEC of the heuristic = %.4f\n",
		derRep.Optimal.Energy, derRep.NEC)

	// Replay the schedule in the discrete-event simulator as a final
	// sanity check.
	rep, err := easched.Simulate(der.Final, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulator: energy %.4f, ok=%v, %d preemptions, %d migrations\n",
		rep.Energy, rep.OK(), rep.Preemptions, rep.Migrations)
}
