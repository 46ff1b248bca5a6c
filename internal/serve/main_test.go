package serve

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: after
// the tests, the goroutine count must fall back to its starting value
// within 5 s (a closed server's connections and workers take a moment to
// exit). os/signal's watcher is not counted: native fuzzing starts it
// (signal.Notify) and it never exits. On failure it prints every
// goroutine's stack.
func TestMain(m *testing.M) {
	before := goroutines()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for goroutines() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := goroutines(); n > before {
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutines after the tests, %d before them — a leak:\n%s\n", n, before, stacks())
			code = 1
		}
	}
	os.Exit(code)
}

// goroutines counts the live goroutines other than os/signal's watcher.
func goroutines() int {
	n := 0
	for _, g := range strings.Split(stacks(), "\n\n") {
		if !strings.Contains(g, "os/signal.signal_recv") {
			n++
		}
	}
	return n
}

// stacks returns every goroutine's stack, blank-line separated.
func stacks() string {
	for size := 1 << 16; ; size *= 2 {
		buf := make([]byte, size)
		if n := runtime.Stack(buf, true); n < size {
			return string(buf[:n])
		}
	}
}
