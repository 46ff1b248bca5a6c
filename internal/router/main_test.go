package router

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: after
// the tests, the goroutine count must fall back to its starting value
// within 5 s (a closed server's connections and workers take a moment to
// exit). On failure it prints every goroutine's stack.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutines after the tests, %d before them — a leak:\n%s\n", n, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
