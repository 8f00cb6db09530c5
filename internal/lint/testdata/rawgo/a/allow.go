package a

import "sync/atomic" //lint:allow rawgo golden testdata documents a counter shared across goroutines

// Shared is a counter that host goroutines really do share.
var Shared atomic.Int64

// Allowed documents a deliberate host goroutine.
func Allowed() {
	go work() //lint:allow rawgo golden testdata documents a goroutine that never enters an Env
}
