// Ydsdemo: the introductory example of the paper (Section I.B). Runs the
// classic YDS optimal algorithm on the three-task uniprocessor instance
// of Fig. 1, shows the speed profile and the EDF realization, and then
// contrasts it with the multi-core optimum of Section II (two cores,
// static power), reproducing the KKT numbers.
//
// Run with: go run ./examples/ydsdemo
package main

import (
	"context"
	"fmt"
	"log"

	"repro/easched"
)

func main() {
	// Fig. 1(a): R = (0, 2, 4), D = (12, 10, 8), C = (4, 2, 4).
	tasks := easched.MustTasks(
		easched.T(0, 4, 12),
		easched.T(2, 2, 10),
		easched.T(4, 4, 8),
	)

	// --- Uniprocessor: YDS (Fig. 2(a)) ---
	ctx := context.Background()
	cubic := easched.NewModel(3, 0)
	yds, err := easched.Solve(ctx, easched.Spec{Tasks: tasks, Cores: 1, Model: cubic, Method: easched.MethodYDS})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("YDS speed profile (uniprocessor):")
	for _, b := range yds.YDSProfile.Bands {
		fmt.Printf("  [%4.1f, %4.1f] speed %.3f\n", b.Start, b.End, b.Speed)
	}
	fmt.Printf("energy under p(f)=f³: %.4f\n\n", yds.Energy)
	fmt.Print(yds.Schedule.Gantt(72))

	// --- Two cores with static power: the Section II optimum ---
	// One DER solve with Compare also solves the convex program.
	model := easched.NewModel(3, 0.01) // p(f) = f³ + 0.01
	der, err := easched.Solve(ctx, easched.Spec{Tasks: tasks, Cores: 2, Model: model, Method: easched.MethodDER, Compare: true})
	if err != nil {
		log.Fatal(err)
	}
	sol := der.Optimal
	fmt.Printf("\ntwo-core optimum under %v:\n", model)
	fmt.Printf("  E^opt = %.6f (paper's KKT: 155/32 + 0.2 = %.6f)\n", sol.Energy, 155.0/32+0.2)
	for i, a := range sol.Avail {
		fmt.Printf("  τ%d total execution time A = %.4f\n", i+1, a)
	}

	// The lightweight heuristic gets very close at a fraction of the cost.
	fmt.Printf("\nDER-based heuristic: E = %.6f (NEC %.4f)\n", der.Energy, der.NEC)
	fmt.Print(der.Schedule.Gantt(72))
}
