//go:build race

package benchwork

// Under -race sync.Pool drops a share of the frame decoders put back, a
// fixed cost of 6–7 thousand allocations on the churn cells: 22 % of
// bestpath-churn's count.
func init() { allocSlack = 1.35 }
