package main

import (
	"errors"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
)

// Standalone probes of single library layers, run by every traced run.
const (
	probeRepeats       = 5      // loads, builds and DES runs per probe
	probeStreams       = 4      // single-switch streams fed to PredictStream
	probeFastShapes    = 200    // analytic estimates over the serve-fast mix
	probeWideShapes    = 4000   // analytic estimates over the mix at wider loads
	probeStreamSeconds = 0.0005 // simulated time of each of those streams
)

// buildScenario materializes a request exactly as the server's runner
// does: named topology, FIFO switches, named traffic model.
func buildScenario(r simRequest) (*experiments.Scenario, error) {
	g, err := experiments.TopoByName(r.Topo)
	if err != nil {
		return nil, err
	}
	sched, err := experiments.SchedByName("fifo")
	if err != nil {
		return nil, err
	}
	tm, err := experiments.TrafficByName(r.trafficName())
	if err != nil {
		return nil, err
	}
	return experiments.NewScenario(r.Topo+"/fifo/"+r.trafficName(), g, sched, tm, r.Load, r.Duration, r.Seed)
}

// libraryProbes times the library layers on their own: model load,
// topology build and routing, PTM inference per window, the DES ground
// truth, and the analytic tier over the serve-fast mix.
func libraryProbes(o opts, out *outcome, model *ptm.PTM, simScs []*experiments.Scenario) error {
	var loads, builds, desRuns []float64
	for k := 0; k < probeRepeats; k++ {
		t0 := time.Now()
		if _, err := ptm.Load(o.modelPath()); err != nil {
			return err
		}
		loads = append(loads, time.Since(t0).Seconds())

		t0 = time.Now()
		g, err := experiments.TopoByName(simTopo)
		if err != nil {
			return err
		}
		sc, err := simScenario(g, simSeeds(o.seed, probeRepeats)[k])
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds())
		if k < len(simScs) {
			sc = simScs[k]
		}
		t0 = time.Now()
		sc.RunDES()
		desRuns = append(desRuns, time.Since(t0).Seconds())
	}
	out.layer["ptm.load_s"] = medianOf(loads)
	out.layer["topo.build_route_s"] = medianOf(builds)
	out.layer["des.run_s"] = medianOf(desRuns)

	// PredictStream over single-switch streams, per sequence window.
	r := rng.New(stream(o.seed, familyPredict).Uint64())
	spec := ptm.TrainSpec{Ports: model.NumPorts, Duration: probeStreamSeconds}
	var busy time.Duration
	windows := 0
	for k := 0; k < probeStreams; k++ {
		ds := ptm.GenerateStream(spec, r)
		for _, ins := range ds.Ins {
			if len(ins) == 0 {
				continue
			}
			t0 := time.Now()
			model.PredictStream(ins, ds.Sched.Kind, ds.RateBps, 1)
			busy += time.Since(t0)
			windows += len(ptm.Chunks(len(ins), model.TimeSteps, model.Margin))
		}
	}
	if windows > 0 {
		out.layer["ptm.predict_us_per_window"] = busy.Seconds() * 1e6 / float64(windows)
	}

	// The analytic tier and topology build over the serve-fast mix.
	var est, topoBuild []float64
	for _, req := range fastRequests(o.seed, probeFastShapes) {
		t0 := time.Now()
		sc, err := buildScenario(req)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := analytic.FromScenario(sc); err != nil {
			return err
		}
		topoBuild = append(topoBuild, float64(t1.Sub(t0).Nanoseconds())/1e3)
		est = append(est, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	out.layer["analytic.estimate_us_p50"] = medianOf(est)
	out.layer["topo.build_us_p50"] = medianOf(topoBuild)

	// The share of valid scenarios at wider loads that the analytic tier
	// rejects as unstable: a known defect the serve-fast mix stays clear
	// of, measured here so that its fix shows.
	unstable := 0
	for _, req := range wideFastRequests(o.seed, probeWideShapes) {
		sc, err := buildScenario(req)
		if err != nil {
			return err
		}
		if _, err := analytic.FromScenario(sc); errors.Is(err, analytic.ErrUnstable) {
			unstable++
		} else if err != nil {
			return err
		}
	}
	out.layer["analytic.unstable_ratio"] = float64(unstable) / probeWideShapes
	return nil
}
