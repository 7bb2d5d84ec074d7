package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"deepqueuenet/internal/serve"
)

// TestDegenerateTopologyIs400 is the regression test for topology names
// whose sizes are below what their builder accepts: star1 used to panic
// inside the HTTP handler on the fast tier (the client got a dropped
// connection), and torus1x1 on the exact tier came back as a 500 worker
// panic that counted against the breaker. Every tier must answer 400
// bad_request before any builder runs. leafspine1x1x1 builds, but its
// single host leaves no flow to route; it must be a 400 too.
func TestDegenerateTopologyIs400(t *testing.T) {
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 4, RetryMax: 2, RetryBase: time.Millisecond}, runner)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	h := srv.Handler()

	names := []string{"star1", "star0", "star-3", "torus1x1", "torus0x4", "torus4x1",
		"leafspine0x0x0", "leafspine2x0x2", "leafspine1x1x1", "dumbbell0", "dumbbell-1", "line1"}
	for _, fidelity := range []string{"fast", "exact"} {
		for _, name := range names {
			body := `{"topo":"` + name + `","duration":0.0002,"fidelity":"` + fidelity + `"}`
			rec := postSim(h, body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s/%s: status %d, want 400 (body %s)", name, fidelity, rec.Code, rec.Body.String())
				continue
			}
			var eb struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("%s/%s: %v", name, fidelity, err)
			}
			if eb.Kind != "bad_request" {
				t.Errorf("%s/%s: kind %q, want bad_request", name, fidelity, eb.Kind)
			}
		}
	}
	// A bad request is not a transient fault: nothing panics and
	// nothing is retried.
	if st := srv.Snapshot(); st.Panics != 0 || st.Retries != 0 {
		t.Errorf("bad requests ran the builders: panics=%d retries=%d", st.Panics, st.Retries)
	}
}
