//go:build race

package benchwork

// Under -race sync.Pool drops a share of what is put back: a cost of up
// to 1.5 thousand allocations a cell in the sealing scratch, 20 % of
// bestpath-cut-session's count, and of up to 4.0 thousand in FromTree's
// and encoding/json's pools, 29 % of traceback-distributed's.
func init() { allocSlack = 1.35 }
