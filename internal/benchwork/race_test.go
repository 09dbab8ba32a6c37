//go:build race

package benchwork

// Under -race sync.Pool drops a share of what is put back: a cost of up
// to 1.8 thousand allocations a cell in the sealing scratch, 14 % of
// bestpath-churn-condensed's count, and of up to 4.1 thousand in the
// traceback replies' pools, 22 % of traceback-distributed's.
func init() { allocSlack = 1.35 }
