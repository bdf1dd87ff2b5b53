package memo

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapBuildsOncePerKey has many goroutines miss the same keys at once,
// in different orders: every key is built exactly once, and every
// goroutine gets the one value built for it. Under -race it also covers
// the snapshot publication.
func TestMapBuildsOncePerKey(t *testing.T) {
	const goroutines, keys = 16, 6
	var m Map[int, *int]
	var calls [keys]atomic.Int32
	build := func(k int) *int {
		calls[k].Add(1)
		v := k
		return &v
	}
	got := make([][keys]*int, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(keys)
			start.Wait()
			for _, k := range order {
				got[g][k] = m.Get(k, build)
			}
		}()
	}
	start.Done()
	done.Wait()
	for k := 0; k < keys; k++ {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
		for g := range got {
			if got[g][k] != got[0][k] || *got[g][k] != k {
				t.Errorf("goroutine %d got another value for key %d", g, k)
			}
		}
		if v := m.Snapshot()[k]; v != got[0][k] {
			t.Errorf("the snapshot holds another value for key %d", k)
		}
	}
	if b := m.Builds(); b != keys {
		t.Errorf("Builds() = %d, want %d", b, keys)
	}
}
