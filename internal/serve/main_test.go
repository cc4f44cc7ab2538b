package serve

import (
	"fmt"
	"os"
	"testing"
)

// TestMain fails the package when a server's background loop outlives the
// tests: every server a test starts must be closed.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := awaitGoroutinesIn("serve.(*Server).run(", 0); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d (*Server).run goroutines outlived the tests\n", n)
		code = 1
	}
	os.Exit(code)
}
