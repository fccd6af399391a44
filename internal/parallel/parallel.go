// Package parallel holds the bounded index-parallel loop every fan-out
// stage of the measurement pipeline shares: collection, direct scans,
// CNAME re-resolution, the Fig. 8 filter, HTML verification and the
// shard driver.
package parallel

import "sync"

// For runs fn(arg, i) for every i in [0, n). With workers <= 1 or n <= 1
// the calls run in index order on the caller's goroutine. Otherwise For
// starts min(workers, n) goroutines, worker w taking the indices
// i ≡ w (mod workers), so no channel hand-off is needed; it returns once
// every call has. A caller that writes each result only to its own
// index's slot gets value-identical output from either path.
//
// fn receives the loop's state as arg instead of capturing it: fn may
// escape to the workers, so a capturing func literal costs a heap
// allocation on every call, serial ones included, while a func that
// captures nothing (a method expression, say) is static.
func For[A any](workers, n int, arg A, fn func(arg A, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(arg, i)
		}
		return
	}
	stride := min(workers, n)
	var wg sync.WaitGroup
	for w := 0; w < stride; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += stride {
				fn(arg, i)
			}
		}(w)
	}
	wg.Wait()
}
