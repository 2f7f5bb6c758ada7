//go:build race

package check_test

import "time"

// Under -race the endpoint sort and every sweep step (and so the gap
// between context polls) run ~10-20x slower; keep the promptness
// contract meaningful without flaking by widening the budget
// accordingly.
const cancelSlack = 500 * time.Millisecond
