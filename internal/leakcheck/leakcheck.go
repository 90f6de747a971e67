// Package leakcheck is the tests' one goroutine-leak check.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settle waits for the goroutine count to fall back to baseline, the count
// a test took before starting the work under check. Goroutines of finished
// work can take a moment to exit, so it polls, backing off to 10 ms, for up
// to five seconds; then it fails t with every goroutine's stack.
func Settle(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for wait := time.Microsecond; ; wait = min(2*wait, 10*time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(wait)
	}
}
