package experiments

import (
	"runtime"
	"sync" //lint:allow rawgo the worker pool below is the one place experiments run on several goroutines, each cell in its own Env
	"sync/atomic"
)

// Parallel evaluates fn for every index in [0, n) on a bounded worker
// pool and returns the results in index order, so output is identical
// to a sequential loop regardless of scheduling. Each call must be
// self-contained — its own sim.Env, seed and deployment — which every
// experiment cell in this package is: the pool exists to spread
// independent simulations across host cores, never to share simulated
// state. workers <= 0 means GOMAXPROCS.
func Parallel[T any](n, workers int, fn func(int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow rawgo each fn(i) builds and runs its own Env, so no goroutine enters another's simulation; wg.Wait below joins them all
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
