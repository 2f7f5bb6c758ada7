package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestPeriodic runs the example and checks the convex optimum's row:
// energies are normalized to it (the paper's NEC), so its own NEC is
// 1.
func TestPeriodic(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "convex optimum                          15.4184     1.0000")
}
