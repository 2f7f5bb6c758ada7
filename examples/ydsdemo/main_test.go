package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestYdsdemo runs the example and checks the Section II two-core
// optimum of the Fig. 1 instance against the paper's KKT solution.
func TestYdsdemo(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "  E^opt = 5.043750 (paper's KKT: 155/32 + 0.2 = 5.043750)")
}
