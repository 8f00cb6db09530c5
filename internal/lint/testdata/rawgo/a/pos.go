// Package a is rawgo golden testdata: under an internal/ path every go
// statement in a non-test file is flagged, however it is joined, and so
// is the file's first import of sync or sync/atomic.
package a

import (
	"sync" // want "import of sync inside simulation code"
	"sync/atomic"
)

func work() {}

// Spawn starts a bare host goroutine.
func Spawn() {
	go work() // want "go statement starts a host goroutine"
}

// Joined waits for its goroutine; inside a simulation that is still a
// second thread.
func Joined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "go statement starts a host goroutine"
		defer wg.Done()
	}()
	wg.Wait()
}

// Counted keeps an atomic where one process would do with an int.
func Counted() int64 {
	var n atomic.Int64
	return n.Add(1)
}
