package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{50, 20}, {90, 100}, {99, 1000}} {
		if got := samplesFor(c.p); got != c.need {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, got, c.need)
		}
		if _, err := percentile(seq(c.need-1), c.p); err == nil {
			t.Errorf("p%v of %d samples reported; fewer than 10 lie beyond it", c.p, c.need-1)
		}
		v, err := percentile(seq(c.need), c.p)
		if err != nil {
			t.Errorf("p%v of %d samples refused: %v", c.p, c.need, err)
		}
		beyond := 0
		for _, x := range seq(c.need) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("p%v of %d samples = %v has only %d samples beyond it", c.p, c.need, v, beyond)
		}
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples reported")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	// (8.25 - 2.75) / 5.5
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "run", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "iter", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "iter", Start: 20, End: 50},  // overlaps the first
		{Trace: 1, ID: 4, Parent: 1, Name: "iter", Start: 60, End: 120}, // clipped at the parent's end
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if run := got["run"]; run.Self != 20 || run.Total != 100 {
		t.Errorf("run self %v total %v, want 20 and 100", run.Self, run.Total)
	}
	if it := got["iter"]; it.Count != 3 || it.Self != it.Total || it.Total != time.Duration(20+30+60) {
		t.Errorf("iter %+v, want 3 leaf spans with self == total == 110", it)
	}
}

func TestParsePromKeepsSeriesAndReportsAbsent(t *testing.T) {
	text := `# HELP dqn_requests_total requests
# TYPE dqn_requests_total counter
dqn_requests_total{outcome="completed"} 12
dqn_batch_size_sum 30
dqn_batch_size_count 10
`
	before, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.ReplaceAll(text, "30", "90")))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := before.get(`dqn_requests_total{outcome="completed"}`); !ok || v != 12 {
		t.Errorf("labelled series = %v %v, want 12 true", v, ok)
	}
	if _, ok := ratioDelta(before, after, "dqn_batch_size_sum", "dqn_batch_size_count"); ok {
		t.Error("ratio over an unmoved denominator reported")
	}
	after["dqn_batch_size_count"] = 20
	if v, ok := ratioDelta(before, after, "dqn_batch_size_sum", "dqn_batch_size_count"); !ok || v != 6 {
		t.Errorf("ratioDelta = %v %v, want 6 true", v, ok)
	}
	if _, ok := delta(before, after, "dqn_batch_calls_total"); ok {
		t.Error("a series the server does not export must be absent")
	}
}
