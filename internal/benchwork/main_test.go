package benchwork

import (
	"os"
	"testing"
)

// TestMain lifts crypto/rsa's 1024-bit minimum: the session budget cell
// uses 512-bit keys so deterministic key generation stays fast.
func TestMain(m *testing.M) {
	os.Setenv("GODEBUG", "rsa1024min=0")
	os.Exit(m.Run())
}
