//go:build unix

package shard

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the CPU time (user + system, all threads) the test process
// has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestBarrierWaitersPark holds one participant back for a long phase: the
// others must be released exactly when it arrives, and must park rather
// than spin meanwhile, so a participant the OS has descheduled is not
// billed to the rest as CPU time.
func TestBarrierWaitersPark(t *testing.T) {
	const parties, gens = 3, 4
	const slow = 50 * time.Millisecond
	b := NewBarrier(parties)
	released := make(chan int, parties*gens)
	start := processCPU()
	for p := 1; p < parties; p++ {
		go func() {
			for g := 0; g < gens; g++ {
				b.Wait(nil)
				released <- g
			}
		}()
	}
	for g := 0; g < gens; g++ {
		time.Sleep(slow)
		if n := len(released); n != 0 {
			t.Fatalf("generation %d: %d participants released before the last arrived", g, n)
		}
		b.Wait(nil)
		for p := 1; p < parties; p++ {
			if got := <-released; got != g {
				t.Fatalf("released from generation %d, want %d", got, g)
			}
		}
	}
	// Spinning waiters would burn about (parties-1) × gens × slow = 400 ms
	// of CPU; parked ones burn next to none.
	if used := processCPU() - start; used > gens*slow/2 {
		t.Fatalf("waiters used %v of CPU over %v of waiting: they spin instead of parking", used, gens*slow)
	}
}
