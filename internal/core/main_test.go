package core

import (
	"os"
	"runtime"
	"testing"
)

// TestMain lifts crypto/rsa's 1024-bit minimum: the package tests use
// 512-bit keys so deterministic key generation stays fast. It also makes
// the default schedule a real pool of at least four workers, so the
// parallel ≡ sequential pins and -race see the interleavings even on a
// one-CPU box.
func TestMain(m *testing.M) {
	os.Setenv("GODEBUG", "rsa1024min=0")
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}
