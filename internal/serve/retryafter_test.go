package serve

import (
	"testing"
	"time"
)

// TestRetryAfterWorkerPoolRegime pins the estimate: backlog clearing
// through the HTTP worker pool, clamped to [1s, 60s].
func TestRetryAfterWorkerPoolRegime(t *testing.T) {
	s := &Server{cfg: Config{Workers: 2}, queue: make(chan *job, 8)}
	s.avgRunNs.Store(int64(4 * time.Second))
	for i := 0; i < 3; i++ {
		s.queue <- &job{}
	}
	// (3 queued + 1 mine) × 4s / 2 workers = 8s.
	if got := s.RetryAfter(); got != 8*time.Second {
		t.Fatalf("RetryAfter = %v, want 8s", got)
	}
	// A long backlog caps at 60s: (3+1) × 40s / 2 = 80s.
	s.avgRunNs.Store(int64(40 * time.Second))
	if got := s.RetryAfter(); got != time.Minute {
		t.Fatalf("ceiling RetryAfter = %v, want 60s", got)
	}
	// Idle server floors at 1s.
	s2 := &Server{cfg: Config{Workers: 2}, queue: make(chan *job, 8)}
	if got := s2.RetryAfter(); got != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", got)
	}
}
