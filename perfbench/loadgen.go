package main

import (
	"sync"
	"syscall"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute
// a fake one so schedule arithmetic is checked without real sleeps.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// realClock sleeps with nanosleep(2) until shortly before the due time
// and spins the rest. The runtime's own timers fire up to a millisecond
// late on hosts without fine-grained timer support, which would add that
// much to every measured latency; spinning the whole way would take CPU
// from the server on a small host.
type realClock struct{}

// spinWindow is how long before the due time the sender stops sleeping.
const spinWindow = 300 * time.Microsecond

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is caught by the spin
	}
	for time.Now().Before(t) {
	}
}

// sample is one open-loop request: when it was due, when a sender
// actually sent it, and when its response completed.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is measured from the scheduled send time, so a stall that
// delays later requests is charged to them (no coordinated omission).
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind schedule the generator sent the request.
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i·interval — from `senders` goroutines, each taking the next
// due request in order. A request whose senders are all busy goes out
// late, and its latency still counts from when it was due. The schedule
// starts one interval after the call.
func openLoop(clk clock, n int, interval time.Duration, senders int, do func(i int) error) []sample {
	out := make([]sample, n)
	start := clk.Now().Add(interval)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				err := do(i)
				out[i] = sample{due: due, sent: sent, done: clk.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs do(0..n-1) from `clients` goroutines, each sending its
// next request only after the previous one answered, and returns the
// first error.
func closedLoop(n, clients int, do func(i int) error) error {
	var mu sync.Mutex
	next := 0
	var first error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := do(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
