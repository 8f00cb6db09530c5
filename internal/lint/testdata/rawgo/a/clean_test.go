package a

import "sync"

// _test.go files are allowlisted: tests own real threads (race tests,
// watchdogs).
func spawnInTest() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
