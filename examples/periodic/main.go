// Periodic: scheduling a classic periodic real-time task system with the
// paper's aperiodic machinery. An avionics-style periodic system is
// unrolled over one hyperperiod into jobs, scheduled with the DER-based
// pipeline on a dual-core DVFS processor, and compared against
// race-to-idle EDF at the minimal feasible speed — showing how much a
// periodic system saves from deadline-aware frequency scaling.
//
// Run with: go run ./examples/periodic [-cores 2] [-p0 0.05] [-sporadic]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/easched"
	"repro/internal/online"
)

// onlineResult aliases the baseline result type for readability.
type onlineResult = online.Result

func main() {
	cores := flag.Int("cores", 2, "number of cores")
	p0 := flag.Float64("p0", 0.05, "static power")
	sporadic := flag.Bool("sporadic", false, "use randomized sporadic arrivals instead of strict periods")
	seed := flag.Int64("seed", 9, "sporadic arrival seed")
	flag.Parse()

	// A small avionics-flavored system: sensor fusion, control loop,
	// telemetry, and a slow health monitor.
	sys := easched.PeriodicSystem{
		{Period: 10, WCET: 2},               // sensor fusion, implicit deadline
		{Period: 20, WCET: 5, Deadline: 15}, // control, constrained deadline
		{Period: 40, WCET: 8, Offset: 5},    // telemetry burst
		{Period: 80, WCET: 6, Deadline: 60}, // health monitor
	}
	hp, err := easched.Hyperperiod(sys, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system utilization %.3f, hyperperiod %g\n", sys.Utilization(), hp)

	var jobs easched.TaskSet
	if *sporadic {
		jobs, err = easched.UnrollSporadic(rand.New(rand.NewSource(*seed)), sys, hp, 0.3)
	} else {
		jobs, err = easched.Unroll(sys, hp)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unrolled %d jobs over one hyperperiod\n\n", len(jobs))

	model := easched.NewModel(3, *p0)

	// The paper's DER-based schedule, with the certified optimum for
	// reference (Compare).
	rep, err := easched.Solve(context.Background(), easched.Spec{
		Tasks: jobs, Cores: *cores, Model: model, Method: easched.MethodDER, Compare: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, sol := rep.Plan, rep.Optimal
	// Race-to-idle EDF: global EDF is not optimal on multiprocessors, so
	// the minimal migratory-feasible speed may not suffice for it — step
	// the speed up until EDF actually meets every deadline (what a
	// practical fixed-frequency deployment would have to provision).
	minSpeed, err := easched.MinimalSpeed(jobs, *cores)
	if err != nil {
		log.Fatal(err)
	}
	speed := minSpeed
	var edf *onlineResult
	for mult := 1.001; mult < 4; mult *= 1.05 {
		speed = minSpeed * mult
		r, err := easched.ScheduleFixedSpeedEDF(jobs, *cores, model, speed)
		if err != nil {
			log.Fatal(err)
		}
		if len(r.MissedTasks) == 0 {
			edf = r
			break
		}
	}
	if edf == nil {
		log.Fatal("EDF never became feasible — raise the multiplier bound")
	}
	fmt.Printf("minimal migratory speed %.4f; EDF needs %.4f to meet all deadlines\n", minSpeed, speed)

	fmt.Printf("%-34s %12s %10s\n", "scheduler", "energy", "NEC")
	fmt.Printf("%-34s %12.4f %10.4f\n", "DER-based subinterval (paper)", plan.FinalEnergy, plan.FinalEnergy/sol.Energy)
	fmt.Printf("%-34s %12.4f %10.4f\n", "race-to-idle EDF (fixed speed)", edf.Energy, edf.Energy/sol.Energy)
	fmt.Printf("%-34s %12.4f %10s\n", "convex optimum", sol.Energy, "1.0000")

	saving := 100 * (edf.Energy - plan.FinalEnergy) / edf.Energy
	if saving >= 0 {
		fmt.Printf("\nDVFS planning saves %.1f%% over the tuned fixed speed here.\n", saving)
	} else {
		fmt.Printf("\nThe tuned fixed speed wins by %.1f%% here: a steady periodic load\n", -saving)
		fmt.Println("with low static power is the fixed-frequency sweet spot. Raise -p0")
		fmt.Println("(static power) or use -sporadic bursts and the planner pulls ahead —")
		fmt.Println("and unlike the tuned speed, it never needed a feasibility search.")
	}
	fmt.Println("\nDER-based schedule over the hyperperiod:")
	fmt.Print(plan.Final.Gantt(76))
}
