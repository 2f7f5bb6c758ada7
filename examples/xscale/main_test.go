package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestXscale runs the example and checks the top XScale operating
// point of the paper's Section VI power table.
func TestXscale(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "    1000 MHz    1600 mW")
}
