//go:build race

package benchwork

// Under -race sync.Pool drops a share of what is put back: a cost of up
// to 1.6 thousand allocations a cell in the sealing scratch, 21 % of
// bestpath-cut-session-store's count, and of up to 2.7 thousand in
// encoding/json's pools, 19 % of traceback-distributed's.
func init() { allocSlack = 1.35 }
