package exampletest

import (
	"flag"
	"fmt"
	"testing"
)

func TestRunCapturesStdoutAndFlags(t *testing.T) {
	for i := 0; i < 2; i++ { // a second run must not redefine the flag
		out := Run(t, func() {
			n := flag.Int("n", 3, "")
			flag.Parse()
			fmt.Printf("n = %d\nend\n", *n)
		})
		Expect(t, out, "n = 3")
	}
}
