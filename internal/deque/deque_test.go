package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestLIFOOwner(t *testing.T) {
	d := New[int]()
	vals := []int{1, 2, 3, 4}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 3; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || *v != vals[i] {
			t.Fatalf("PopBottom = %v,%v, want %d", v, ok, vals[i])
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Error("PopBottom on empty succeeded")
	}
	if _, ok := d.Steal(); ok {
		t.Error("Steal on empty succeeded")
	}
}

func TestStealFIFO(t *testing.T) {
	d := New[int]()
	vals := []int{10, 20, 30}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := 0; i < 3; i++ {
		v, ok := d.Steal()
		if !ok || *v != vals[i] {
			t.Fatalf("Steal #%d = %v,%v, want %d", i, v, ok, vals[i])
		}
	}
}

func TestGrowth(t *testing.T) {
	d := New[int]()
	n := MinCapacity * 4
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	// Alternate pops and steals, verifying the full content comes out.
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		var v *int
		var ok bool
		if i%2 == 0 {
			v, ok = d.PopBottom()
		} else {
			v, ok = d.Steal()
		}
		if !ok || seen[*v] {
			t.Fatalf("iteration %d: ok=%v dup=%v", i, ok, seen[*v])
		}
		seen[*v] = true
	}
}

// TestForgetClearsSlots: whatever mix of pops, steals, growth and index
// wrap-around drained the deque, Forget leaves no slot pointing at a
// consumed element, and the deque keeps working.
func TestForgetClearsSlots(t *testing.T) {
	d := New[int]()
	vals := make([]int, 5*MinCapacity)
	for round, n := range []int{3, MinCapacity, 1, 2*MinCapacity + 1, 5, len(vals)} {
		for i := 0; i < n; i++ {
			d.PushBottom(&vals[i])
			if i%4 == 3 {
				d.Steal()
			}
		}
		for {
			if _, ok := d.PopBottom(); !ok {
				break
			}
		}
		d.Forget()
		r := d.ring.Load()
		for i := range r.buf {
			if v := r.buf[i].Load(); v != nil {
				t.Fatalf("round %d: slot %d of %d still set after Forget", round, i, len(r.buf))
			}
		}
	}
	d.Forget() // nothing to clear
	d.PushBottom(&vals[0])
	if v, ok := d.Steal(); !ok || v != &vals[0] {
		t.Fatalf("Steal after Forget = %v,%v", v, ok)
	}
}

// TestConcurrentStress: one owner pushes/pops while thieves steal; every
// element must be consumed exactly once. The owner calls Forget whenever it
// finds the deque empty, with thieves in flight.
func TestConcurrentStress(t *testing.T) {
	const n = 200_000
	const thieves = 4
	d := New[int64]()
	vals := make([]int64, n)
	var consumed atomic.Int64
	var sum atomic.Int64
	var want int64
	for i := range vals {
		vals[i] = int64(i + 1)
		want += int64(i + 1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < thieves; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					sum.Add(*v)
					consumed.Add(1)
				}
				select {
				case <-stop:
					// Drain what remains visible, then exit.
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						sum.Add(*v)
						consumed.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: pushes all elements, popping occasionally.
	for i := range vals {
		d.PushBottom(&vals[i])
		if i%3 == 0 {
			if v, ok := d.PopBottom(); ok {
				sum.Add(*v)
				consumed.Add(1)
			} else {
				d.Forget()
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		sum.Add(*v)
		consumed.Add(1)
	}
	close(stop)
	wg.Wait()
	// Residue after racing pops: drain.
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		sum.Add(*v)
		consumed.Add(1)
	}

	if consumed.Load() != n {
		t.Fatalf("consumed %d of %d", consumed.Load(), n)
	}
	if sum.Load() != want {
		t.Fatalf("sum %d, want %d (duplicate or lost element)", sum.Load(), want)
	}
}

func BenchmarkPushPop(b *testing.B) {
	d := New[int]()
	v := 42
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		d.PopBottom()
	}
}

func BenchmarkStealHalf(b *testing.B) {
	d := New[int]()
	v := 42
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		if i%2 == 0 {
			d.Steal()
		} else {
			d.PopBottom()
		}
	}
}
