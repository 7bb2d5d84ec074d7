package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopBoundsInFlightAndTimesFromDue(t *testing.T) {
	const conns, n = 2, 8
	const work = 40 * time.Millisecond
	var inFlight, peak atomic.Int32
	dues := make([]time.Duration, n) // all due at once: a burst
	shots := openLoop(context.Background(), dues, conns, 10*time.Second, func(ctx context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(work)
		inFlight.Add(-1)
		return nil
	})
	if p := peak.Load(); p > conns {
		t.Fatalf("%d requests in flight, want at most %d", p, conns)
	}
	var last time.Duration
	for i, sh := range shots {
		if sh.Unsent || sh.Err != nil {
			t.Fatalf("request %d: unsent %v err %v", i, sh.Unsent, sh.Err)
		}
		if sh.Latency() != sh.Done-sh.Due || sh.Latency() < sh.Done-sh.Sent {
			t.Fatalf("request %d: latency %v not timed from its due time", i, sh.Latency())
		}
		if sh.Latency() > last {
			last = sh.Latency()
		}
	}
	// Eight requests on two connections take four rounds: the last one's
	// latency includes three rounds of waiting for a connection.
	if last < n/conns*work {
		t.Errorf("slowest latency %v, want at least %v (waiting counts)", last, n/conns*work)
	}
	// Waiting for a busy connection is the server's backlog, not the
	// generator's lateness.
	for i, sh := range shots {
		if sh.GenLate > work/2 {
			t.Errorf("request %d: generator lateness %v includes connection wait", i, sh.GenLate)
		}
	}
}

func TestOpenLoopKeepsScheduleAndMarksUnsent(t *testing.T) {
	// A schedule far above what one connection can serve: the requests
	// still queued when the phase ends are marked unsent.
	dues := constantRate(20, 200) // 20 requests over 95 ms
	shots := openLoop(context.Background(), dues, 1, 0, func(ctx context.Context, i int) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	unsent := 0
	for i, sh := range shots {
		if sh.Due != dues[i] {
			t.Fatalf("request %d due %v, schedule says %v", i, sh.Due, dues[i])
		}
		if sh.Unsent {
			unsent++
			continue
		}
		if sh.Sent < sh.Due {
			t.Errorf("request %d sent at %v before its due time %v", i, sh.Sent, sh.Due)
		}
	}
	if unsent == 0 || unsent == len(dues) {
		t.Errorf("%d of %d unsent, want some sent and some left over", unsent, len(dues))
	}
}

func TestConstantRate(t *testing.T) {
	d := constantRate(5, 4)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("constantRate(5, 4) = %v, want %v", d, want)
		}
	}
}
