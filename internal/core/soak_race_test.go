//go:build race

package core_test

// Under -race the soak runs a fifth of its pairs, sampling every 20, and
// keeps both assertions.
func init() { soakPairs, soakSampleEvery = 200, 20 }
