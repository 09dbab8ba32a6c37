//go:build race

package benchwork

// Under -race sync.Pool drops a share of the sealing scratch put back, a
// cost of up to 1.8 thousand allocations a cell: 14 % of
// bestpath-churn-condensed's count.
func init() { allocSlack = 1.35 }
