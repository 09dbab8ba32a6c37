//go:build race

package benchwork

// Under -race sync.Pool drops a share of the sealing scratch put back, a
// cost of 0.8–1.1 thousand allocations a cell: 12 % of bestpath-churn's
// count.
func init() { allocSlack = 1.35 }
