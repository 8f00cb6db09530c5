// Package a is rawgo golden testdata: under an internal/ path every go
// statement in a non-test file is flagged, however it is joined.
package a

import "sync"

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
