package a

// Allowed documents a deliberate host goroutine.
func Allowed() {
	go work() //lint:allow rawgo golden testdata documents a goroutine that never enters an Env
}
