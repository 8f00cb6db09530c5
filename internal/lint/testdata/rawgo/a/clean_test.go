package a

// _test.go files are allowlisted: tests own real threads (race tests,
// watchdogs).
func spawnInTest() {
	go work()
}
