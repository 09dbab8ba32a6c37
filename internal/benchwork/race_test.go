//go:build race

package benchwork

// Under -race sync.Pool drops a share of what is put back: a cost of up
// to 2.7 thousand allocations in encoding/json's pools, 19 % of
// traceback-distributed's count. The other cells read at most 4 % higher
// (fig3-batch-condensed, 0.9 thousand).
func init() { allocSlack = 1.35 }
