package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestGovernors runs the example and checks that the deadline-aware
// DER schedule on the XScale frequency grid misses no job.
func TestGovernors(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "DER schedule (paper, quantized)             52159        0   (+0.0%)")
}
