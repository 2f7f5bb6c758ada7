//go:build !race

package check_test

import "time"

// cancelSlack is how long after cancellation an Audit may take to
// return. The race detector slows the endpoint sort and the sweep (and
// so the spacing between context polls) by an order of magnitude, so
// the budget scales with it — see race_on_test.go.
const cancelSlack = 50 * time.Millisecond
