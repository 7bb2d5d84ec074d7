package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// shot is the outcome of one scheduled request of an open-loop phase.
// Times are offsets from the phase start.
type shot struct {
	Due  time.Duration // when the schedule says the request is sent
	Sent time.Duration // when a connection actually took it
	Done time.Duration // when its response was complete
	// GenLate is the generator's own delay: how long after the request
	// became sendable (its due time, or the moment the previous request
	// was handed to a connection, whichever is later) the dispatcher
	// got to it. Waiting for a free connection is the system's backlog
	// and is not counted here.
	GenLate time.Duration
	Unsent  bool // the phase ended before a connection took it
	Err     error
}

// Latency is the request's latency timed from its due time, so a stall
// is charged to every request scheduled behind it.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// openLoop sends len(dues) requests on a fixed schedule, independent of
// how fast responses come back, over at most conns concurrent
// connections. A request that finds every connection busy waits in the
// generator and is sent late; its latency still counts from its due
// time. Requests not taken by a connection by the phase end (the last
// due time plus grace) are marked Unsent. send performs request i and
// must honour ctx. openLoop returns after every sent request has
// completed.
func openLoop(ctx context.Context, dues []time.Duration, conns int, grace time.Duration,
	send func(ctx context.Context, i int) error) []shot {
	out := make([]shot, len(dues))
	if len(dues) == 0 {
		return out
	}
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }

	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				err := sendGuarded(ctx, i, send)
				out[i].Done = since()
				out[i].Err = err
			}
		}()
	}

	end := time.NewTimer(dues[len(dues)-1] + grace)
	defer end.Stop()
	var handed time.Duration // when the previous request reached a connection
	i := 0
dispatch:
	for ; i < len(dues); i++ {
		out[i].Due = dues[i]
		if wait := dues[i] - since(); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break dispatch
			}
		}
		ready := dues[i]
		if handed > ready {
			ready = handed
		}
		now := since()
		out[i].GenLate = now - ready
		out[i].Sent = now
		select {
		case work <- i:
			handed = since()
			out[i].Sent = handed
		case <-end.C:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	for ; i < len(dues); i++ {
		out[i].Due = dues[i]
		out[i].Unsent = true
	}
	close(work)
	wg.Wait()
	return out
}

// constantRate is the schedule of n requests at rate per second, the
// first sent at once.
func constantRate(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

// closedLoop keeps conns requests in flight, each connection sending its
// next request as soon as the previous one is answered, until d has
// passed or n requests were sent; requests in flight at the deadline
// complete. Each shot is timed from its send (Due == Sent). It returns
// the shots of the requests it sent.
func closedLoop(ctx context.Context, n, conns int, d time.Duration,
	send func(ctx context.Context, i int) error) []shot {
	out := make([]shot, n)
	start := time.Now()
	var mu sync.Mutex
	next := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || time.Since(start) >= d || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				out[i].Sent = time.Since(start)
				out[i].Due = out[i].Sent
				out[i].Err = sendGuarded(ctx, i, send)
				out[i].Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out[:next]
}

// sendGuarded performs request i and turns a panic while doing so into
// the request's error: a bug in the benchmark fails that request instead
// of killing the process while a server it started is still up.
func sendGuarded(ctx context.Context, i int, send func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("request %d panicked: %v", i, r)
		}
	}()
	return send(ctx, i)
}
