package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestServerfarm runs the example and checks the core count the search
// selects at the knee of the S^F2 energy curve.
func TestServerfarm(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "selected 5 cores: 74.39% below the single-core schedule, 0.00% below using all 12")
}
