package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, n, n + 3} {
		var calls [n]atomic.Int32
		For(workers, n, &calls, func(calls *[n]atomic.Int32, i int) { calls[i].Add(1) })
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForSerialInOrder(t *testing.T) {
	const n = 20
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		For(workers, n, &order, func(order *[]int, i int) { *order = append(*order, i) })
		if len(order) != n {
			t.Fatalf("workers=%d: ran %d indices, want %d", workers, len(order), n)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: position %d ran index %d", workers, i, got)
			}
		}
	}
}

// TestForStridesByWorker pins the index assignment: worker w takes
// i ≡ w (mod workers), each worker in ascending order.
func TestForStridesByWorker(t *testing.T) {
	const n, workers = 23, 4
	var mu sync.Mutex
	seen := make(map[int][]int) // i mod workers -> indices in run order
	For(workers, n, seen, func(seen map[int][]int, i int) {
		mu.Lock()
		seen[i%workers] = append(seen[i%workers], i)
		mu.Unlock()
	})
	for w, idx := range seen {
		for k, i := range idx {
			if i != w+k*workers {
				t.Fatalf("residue %d ran %v, want ascending stride %d from %d", w, idx, workers, w)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	For(4, 0, t, func(t *testing.T, _ int) { t.Fatal("fn called for n=0") })
}
