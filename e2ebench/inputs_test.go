package main

import (
	"reflect"
	"slices"
	"testing"
)

// shape is what a workload fixes regardless of the seed.
func shape(reqs []simRequest) []simRequest {
	out := make([]simRequest, len(reqs))
	for i, r := range reqs {
		out[i] = simRequest{Duration: r.Duration, Shards: r.Shards, Fidelity: r.Fidelity}
	}
	return out
}

func TestSeedsChangeInputsNotShape(t *testing.T) {
	for name, gen := range map[string]func(uint64, int) []simRequest{
		"serve-exact":        exactRequests,
		"serve-fast":         fastRequests,
		"wide-load analytic": wideFastRequests,
	} {
		a, b := gen(1, 300), gen(2, 300)
		if !reflect.DeepEqual(gen(1, 300), a) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", name)
		}
		if !reflect.DeepEqual(shape(a), shape(b)) {
			t.Errorf("%s: the seed changed the workload shape", name)
		}
		seen := map[uint64]bool{}
		for _, r := range append(a, b...) {
			if seen[r.Seed] {
				t.Errorf("%s: traffic seed %d repeats", name, r.Seed)
			}
			seen[r.Seed] = true
		}
	}
	for _, r := range exactRequests(7, 500) {
		if r.Topo != "line4" || r.Load < 0.3 || r.Load > 0.6 || r.Fidelity != "exact" {
			t.Fatalf("exact request out of shape: %+v", r)
		}
	}
	topos, traffic := map[string]bool{}, map[string]bool{}
	for _, r := range fastRequests(7, 500) {
		if r.Load < 0.2 || r.Load > 0.35 || r.Fidelity != "fast" ||
			!slices.Contains(fastTopos, r.Topo) || !slices.Contains(fastTraffic, r.Traffic) {
			t.Fatalf("fast request out of shape: %+v", r)
		}
		topos[r.Topo], traffic[r.Traffic] = true, true
	}
	if len(topos) != len(fastTopos) || len(traffic) != len(fastTraffic) {
		t.Errorf("fast mix covers %d topologies and %d traffic models, want all", len(topos), len(traffic))
	}
	hi := 0.0
	for _, r := range wideFastRequests(7, 500) {
		if r.Load < 0.2 || r.Load > 0.6 || r.Fidelity != "fast" {
			t.Fatalf("wide-load request out of shape: %+v", r)
		}
		hi = max(hi, r.Load)
	}
	if hi < 0.55 {
		t.Errorf("wide-load requests reach only load %v", hi)
	}

	s1, s2 := simSeeds(1, 100), simSeeds(2, 100)
	if reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(s1, simSeeds(1, 100)) || len(s1) != len(s2) {
		t.Error("sim seeds must differ across workload seeds and repeat for one")
	}
}
