// Package main is rawgo golden testdata: drivers under cmd/ run
// experiments on real threads, so the same statement is not flagged.
package main

func main() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
