package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestQuickstart runs the example and checks the DER-based energy of
// the paper's Section V.D instance.
func TestQuickstart(t *testing.T) {
	exampletest.Expect(t, exampletest.Run(t, main), "DER-based method:         E = 31.8362")
}
