package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestBiglittle runs the example and checks that capping at the XScale
// f_max of 1000 MHz serves every task.
func TestBiglittle(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "cap-aware schedule:  peak frequency 1000 MHz, missed tasks: 0 (fallback used: true)")
}
