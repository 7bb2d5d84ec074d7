// Command dqnbench is the reproducible performance harness behind
// `make bench` and `make bench-check`. It measures the inference hot
// path at three scales — one PTM forward window, one full
// PredictStream, and end-to-end IRSA runs on the FatTree16 and Abilene
// example topologies — plus the serving layer at saturation (requests/s
// and shed rate through the bounded worker pool), and records ns/op,
// allocs/op, B/op, and throughput as JSON (BENCH_pr6.json schema,
// documented in the README "Benchmarking" section). The e2e runs carry
// an attached obs.EngineObserver, so the recorded numbers include the
// observability layer's cost and -check gates its overhead. An
// e2e_fattree16_ckpt variant runs with epoch checkpointing on at every
// IRSA iteration, pricing the crash-safety layer, and serve_saturation
// reports p50/p99 request latency alongside requests/s and shed rate.
//
//	dqnbench -out BENCH_pr6.json                 # run, write results
//	dqnbench -out BENCH_pr6.json -record-before  # also store run as the "before" baseline
//	dqnbench -check BENCH_pr6.json               # run, fail on regression vs committed file
//
// When -out points at an existing file its "before" section is
// preserved, so the pre-optimization baseline survives refreshes.
// -check fails when any benchmark regresses by more than 15% ns/op or
// by any amount in allocs/op against the committed "benches" section.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/checkpoint"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/serve"
	"deepqueuenet/internal/tensor"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// Bench is one benchmark record.
type Bench struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	WindowsPerOp    int     `json:"windows_per_op,omitempty"`
	AllocsPerWindow float64 `json:"allocs_per_window,omitempty"`
	PacketsPerSec   float64 `json:"packets_per_sec,omitempty"`
	RequestsPerSec  float64 `json:"requests_per_sec,omitempty"`
	ShedRate        float64 `json:"shed_rate,omitempty"`
	// P50/P99LatencyMs are per-request wall latencies of completed
	// (non-shed) requests, serve_saturation* only.
	P50LatencyMs float64 `json:"p50_latency_ms,omitempty"`
	P99LatencyMs float64 `json:"p99_latency_ms,omitempty"`
	// Tiers counts completed requests by degradation-ladder tier across
	// all measured episodes, serve_saturation* only: the brownout
	// variant shows how much of its extra throughput the analytic tier
	// carried.
	Tiers map[string]uint64 `json:"tiers,omitempty"`
	// Sweep holds per-concurrency-level completed-request throughput,
	// serve_concurrency_sweep only (best observed per level).
	Sweep map[string]float64 `json:"sweep,omitempty"`
}

// File is the on-disk benchmark report.
type File struct {
	Schema  int     `json:"schema"`
	Go      string  `json:"go"`
	MaxProc int     `json:"gomaxprocs"`
	Note    string  `json:"note,omitempty"`
	Before  []Bench `json:"before,omitempty"`
	Benches []Bench `json:"benches"`
}

// nsRegression is the relative ns/op slack -check allows before failing.
const nsRegression = 0.15

// reps is how many times each benchmark is repeated; the fastest run is
// kept. The minimum is the least-noise estimate of intrinsic cost on a
// shared machine — scheduler interference and cache pollution only ever
// add time. Settable with -reps.
var reps = 3

// measure runs fn under testing.Benchmark reps times and keeps the
// fastest result. allocs/op is identical across repetitions (the
// inference paths are deterministic), so only ns/op selection matters.
func measure(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < reps; i++ {
		r := testing.Benchmark(fn)
		if r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// benchArch matches the experiment harness's CPU-scale PTM.
var benchArch = ptm.Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

func main() {
	out := flag.String("out", "", "write results to this JSON file")
	check := flag.String("check", "", "compare a fresh run against this committed baseline")
	recordBefore := flag.Bool("record-before", false, "store this run as the 'before' baseline too")
	note := flag.String("note", "", "free-form note recorded in the output file")
	flag.IntVar(&reps, "reps", reps, "repetitions per benchmark; the fastest run is kept")
	flag.BoolVar(&obsSummary, "obs-summary", false, "print each e2e benchmark's engine telemetry (delta trace, shard work)")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		fatal(err)
	}
	if *out == "" && *check == "" {
		*out = "BENCH_pr6.json"
	}

	benches, err := runAll()
	if err != nil {
		fatal(err)
	}
	for _, b := range benches {
		line := fmt.Sprintf("%-22s %14.0f ns/op %10.0f allocs/op %12.0f B/op", b.Name, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp)
		if b.WindowsPerOp > 0 {
			line += fmt.Sprintf("   %8.1f allocs/window", b.AllocsPerWindow)
		}
		if b.PacketsPerSec > 0 {
			line += fmt.Sprintf("   %10.0f pkts/sec", b.PacketsPerSec)
		}
		if b.RequestsPerSec > 0 {
			line += fmt.Sprintf("   %8.1f req/sec  %5.1f%% shed  p50 %.2fms p99 %.2fms",
				b.RequestsPerSec, b.ShedRate*100, b.P50LatencyMs, b.P99LatencyMs)
		}
		if len(b.Tiers) > 0 {
			line += fmt.Sprintf("   tiers %v", b.Tiers)
		}
		fmt.Println(line)
	}

	if *check != "" {
		if err := runCheck(*check, benches); err != nil {
			fatal(err)
		}
		fmt.Printf("bench-check OK: no ns/op regression beyond %d%%, no allocs/op regression vs %s\n",
			int(nsRegression*100), *check)
		return
	}

	f := File{Schema: 1, Go: runtime.Version(), MaxProc: runtime.GOMAXPROCS(0), Note: *note, Benches: benches}
	if prev, err := load(*out); err == nil {
		f.Before = prev.Before
		if f.Note == "" {
			f.Note = prev.Note
		}
	}
	if *recordBefore {
		f.Before = benches
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dqnbench: %v\n", err)
	os.Exit(1)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// checkRetries is how many times -check re-measures a failing benchmark
// before declaring a regression. Wall-clock noise on a shared machine
// routinely exceeds the 15% ns/op gate for a single sample, and the
// end-to-end runs jitter by a couple of allocs with goroutine
// scheduling; a genuine slowdown or reuse bug (hundreds of allocs per
// window) survives every retry, transient interference does not.
const checkRetries = 2

type failure struct {
	name string
	msg  string
}

// compare returns the gate failures of fresh results vs the committed
// baseline: >15% ns/op, or any allocs/op increase.
func compare(base *File, fresh []Bench) []failure {
	committed := map[string]Bench{}
	for _, b := range base.Benches {
		committed[b.Name] = b
	}
	var fails []failure
	for _, f := range fresh {
		c, ok := committed[f.Name]
		if !ok {
			continue // new benchmark, nothing to regress against
		}
		if c.NsPerOp > 0 && f.NsPerOp > c.NsPerOp*(1+nsRegression) {
			fails = append(fails, failure{f.Name, fmt.Sprintf(
				"%s: ns/op regressed %.0f -> %.0f (>%d%%)", f.Name, c.NsPerOp, f.NsPerOp, int(nsRegression*100))})
		}
		if f.AllocsPerOp > c.AllocsPerOp {
			fails = append(fails, failure{f.Name, fmt.Sprintf(
				"%s: allocs/op regressed %.0f -> %.0f (any increase fails)", f.Name, c.AllocsPerOp, f.AllocsPerOp)})
		}
	}
	return fails
}

// runCheck compares fresh results to the committed baseline,
// re-measuring failing benchmarks up to checkRetries times — keeping
// the element-wise minimum of each metric across samples — before
// reporting them as real regressions.
func runCheck(path string, fresh []Bench) error {
	base, err := load(path)
	if err != nil {
		return err
	}
	runners := map[string]func() (Bench, error){}
	for _, d := range benchDefs() {
		runners[d.name] = d.run
	}
	idx := map[string]int{}
	for i, b := range fresh {
		idx[b.Name] = i
	}
	for attempt := 0; ; attempt++ {
		fails := compare(base, fresh)
		if len(fails) == 0 {
			return nil
		}
		if attempt == checkRetries {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "REGRESSION: "+f.msg)
			}
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(fails), path)
		}
		seen := map[string]bool{}
		for _, f := range fails {
			if seen[f.name] {
				continue // one benchmark can fail both gates
			}
			seen[f.name] = true
			fmt.Printf("re-measuring %s: over gate, retry %d of %d\n", f.name, attempt+1, checkRetries)
			b, err := runners[f.name]()
			if err != nil {
				return err
			}
			i := idx[f.name]
			fresh[i].NsPerOp = math.Min(fresh[i].NsPerOp, b.NsPerOp)
			fresh[i].AllocsPerOp = math.Min(fresh[i].AllocsPerOp, b.AllocsPerOp)
			fresh[i].BytesPerOp = math.Min(fresh[i].BytesPerOp, b.BytesPerOp)
		}
	}
}

// benchDef names one benchmark and how to run it.
type benchDef struct {
	name string
	run  func() (Bench, error)
}

// benchDefs lists every benchmark in stable order.
func benchDefs() []benchDef {
	return []benchDef{
		{"ptm_window", benchWindow},
		{"ptm_predict_stream", benchPredictStream},
		{"ptm_predict_stream_quant", benchPredictStreamQuant},
		{"gemm_embed_32x14x12", func() (Bench, error) { return benchGEMM("gemm_embed_32x14x12", 32, 14, 12) }},
		{"gemm_blstm1_32x12x64", func() (Bench, error) { return benchGEMM("gemm_blstm1_32x12x64", 32, 12, 64) }},
		{"gemm_blstm2_32x32x40", func() (Bench, error) { return benchGEMM("gemm_blstm2_32x32x40", 32, 32, 40) }},
		{"gemm_qkv_32x20x48", func() (Bench, error) { return benchGEMM("gemm_qkv_32x20x48", 32, 20, 48) }},
		{"e2e_fattree16", func() (Bench, error) {
			return benchE2E("e2e_fattree16", topo.FatTree(topo.FatTree16, topo.DefaultLAN), traffic.ModelMAP, 0.5, 0.0002, 11)
		}},
		{"e2e_wan_abilene", func() (Bench, error) {
			return benchE2E("e2e_wan_abilene", topo.Abilene(10e9), traffic.ModelBCLike, 0.12, 0.002, 17)
		}},
		{"e2e_fattree16_ckpt", func() (Bench, error) {
			return benchE2ECkpt("e2e_fattree16_ckpt", topo.FatTree(topo.FatTree16, topo.DefaultLAN), traffic.ModelMAP, 0.5, 0.0002, 11)
		}},
		{"serve_saturation", func() (Bench, error) { return benchServe("serve_saturation", false) }},
		{"serve_saturation_brownout", func() (Bench, error) { return benchServe("serve_saturation_brownout", true) }},
		{"serve_concurrency_sweep", func() (Bench, error) { return benchServeSweep("serve_concurrency_sweep") }},
	}
}

// runAll executes every benchmark in stable order.
func runAll() ([]Bench, error) {
	var out []Bench
	for _, d := range benchDefs() {
		b, err := d.run()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func record(name string, r testing.BenchmarkResult) Bench {
	return Bench{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// benchWindow measures one PTM-shaped forward pass over a single
// TimeSteps window — the inference unit of the simulator.
func benchWindow() (Bench, error) {
	p, err := ptm.Synthetic(benchArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	stream := synthStream(benchArch.TimeSteps, 2)
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.PredictStream(stream, des.FIFO, 10e9, 1)
		}
	})
	out := record("ptm_window", r)
	out.WindowsPerOp = 1
	out.AllocsPerWindow = out.AllocsPerOp
	return out, nil
}

// benchPredictStream measures a 2000-packet stream: the per-egress-port
// batch path the IRSA loop drives on every device, every iteration.
func benchPredictStream() (Bench, error) {
	p, err := ptm.Synthetic(benchArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	const n = 2000
	stream := synthStream(n, 2)
	windows := len(ptm.Chunks(n, p.TimeSteps, p.Margin))
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.PredictStream(stream, des.FIFO, 10e9, 1)
		}
	})
	out := record("ptm_predict_stream", r)
	out.WindowsPerOp = windows
	out.AllocsPerWindow = out.AllocsPerOp / float64(windows)
	return out, nil
}

// benchPredictStreamQuant measures the same 2000-packet stream as
// ptm_predict_stream on the int8 quantized backend — the pair is the
// exact-vs-quant speed comparison EXPERIMENTS.md reports.
func benchPredictStreamQuant() (Bench, error) {
	p, err := ptm.Synthetic(benchArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	if err := p.WithQuantized(); err != nil {
		return Bench{}, err
	}
	const n = 2000
	stream := synthStream(n, 2)
	windows := len(ptm.Chunks(n, p.TimeSteps, p.Margin))
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.PredictStream(stream, des.FIFO, 10e9, 1)
		}
	})
	out := record("ptm_predict_stream_quant", r)
	out.WindowsPerOp = windows
	out.AllocsPerWindow = out.AllocsPerOp / float64(windows)
	return out, nil
}

// benchGEMM measures one packed blocked matmul at a production PTM
// layer shape (named m×k×n), isolating the kernel from the surrounding
// forward pass.
func benchGEMM(name string, m, k, n int) (Bench, error) {
	r := rng.New(9)
	a := tensor.New(m, k)
	w := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = r.Uniform(-1, 1)
	}
	for i := range w.Data {
		w.Data[i] = r.Uniform(-1, 1)
	}
	p := tensor.Pack(w)
	dst := tensor.New(m, n)
	res := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulPackedInto(dst, a, p)
		}
	})
	return record(name, res), nil
}

// synthStream builds a deterministic packet stream.
func synthStream(n int, seed uint64) []ptm.PacketIn {
	r := rng.New(seed)
	stream := make([]ptm.PacketIn, n)
	tm := 0.0
	for i := range stream {
		tm += r.Exp(1e6)
		stream[i] = ptm.PacketIn{Arrive: tm, Size: 64 + r.Intn(1400), InPort: r.Intn(8)}
	}
	return stream
}

// obsSummary enables per-benchmark telemetry dumps (-obs-summary).
var obsSummary bool

// benchE2E measures a full IRSA run (Shards=4) on one example topology
// and derives end-to-end packets/sec from the delivery count. An
// EngineObserver is attached to every measured run, so the recorded
// baseline is observer-on: bench-check's 15% gate then proves the
// observability layer's overhead fits the budget by construction.
func benchE2E(name string, g *topo.Graph, tm traffic.Model, load, dur float64, seed uint64) (Bench, error) {
	return benchE2ECfg(name, g, tm, load, dur, seed, false)
}

// benchE2ECkpt is benchE2E with epoch checkpointing on at every IRSA
// iteration (snapshots to a scratch dir, fsync off): it prices the
// tentpole's crash-safety against the checkpoint-free run of the same
// scenario, and bench-check gates it like any other benchmark.
func benchE2ECkpt(name string, g *topo.Graph, tm traffic.Model, load, dur float64, seed uint64) (Bench, error) {
	return benchE2ECfg(name, g, tm, load, dur, seed, true)
}

func benchE2ECfg(name string, g *topo.Graph, tm traffic.Model, load, dur float64, seed uint64, ckpt bool) (Bench, error) {
	model, err := ptm.Synthetic(benchArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	sc, err := experiments.NewScenario(name, g, des.SchedConfig{Kind: des.FIFO}, tm, load, dur, seed)
	if err != nil {
		return Bench{}, err
	}
	observer := obs.NewEngineObserver(obs.NewRegistry())
	cfg := core.Config{Shards: 4, Observer: observer}
	if ckpt {
		dir, err := os.MkdirTemp("", "dqnbench-ckpt-*")
		if err != nil {
			return Bench{}, err
		}
		defer os.RemoveAll(dir)
		modelDigest, err := checkpoint.ModelDigest(model)
		if err != nil {
			return Bench{}, err
		}
		w := &checkpoint.Writer{
			Path:        dir + "/run.ckpt",
			TopoDigest:  checkpoint.TopoDigest(g),
			ModelDigest: modelDigest,
			Seed:        seed,
			NoSync:      true,
		}
		cfg.EpochSink = w.Sink()
		cfg.EpochEvery = 1
	}
	_, res, err := sc.RunDQNCfg(model, cfg)
	if err != nil {
		return Bench{}, err
	}
	delivered := len(res.Deliveries)
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sc.RunDQNCfg(model, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if obsSummary {
		fmt.Printf("--- %s telemetry (accumulated across all measured runs)\n", name)
		if err := observer.WriteSummary(os.Stdout); err != nil {
			return Bench{}, err
		}
	}
	out := record(name, r)
	out.PacketsPerSec = float64(delivered) / (out.NsPerOp * 1e-9)
	return out, nil
}

// benchServe measures the serving layer at saturation: one op is an
// episode of 8 concurrent clients firing 4 requests each through a
// 2-worker / depth-2 server, so admission control is always under
// pressure. It reports completed requests/s and the shed rate alongside
// the usual ns/op and allocs/op gates. With brownout on, the same
// episode answers its overflow analytically instead of shedding — the
// Tiers breakdown prices what the extra availability costs.
func benchServe(name string, brownout bool) (Bench, error) {
	// A small PTM keeps the episode dominated by serving mechanics
	// (admission, queueing, breaker bookkeeping) rather than inference.
	serveArch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}
	model, err := ptm.Synthetic(serveArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	runner := &serve.ScenarioRunner{DefaultModel: model, MaxShards: 2}
	srv, err := serve.New(serve.Config{
		Workers: 2, QueueDepth: 2, RetryMax: -1,
		DefaultTimeout: 30 * time.Second, Seed: 1, Brownout: brownout,
	}, runner)
	if err != nil {
		return Bench{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dqnbench: serve drain: %v\n", err)
		}
	}()

	// Per-request wall latencies of completed (non-shed) requests,
	// accumulated across every measured episode. Preallocated so the
	// append inside the measured region stays allocation-free.
	var latMu sync.Mutex
	lats := make([]float64, 0, 1<<20)

	const clients, perClient = 8, 4
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer func() {
						if we := guard.RecoveredWorker(c, recover()); we != nil {
							b.Error(we)
						}
						wg.Done()
					}()
					for k := 0; k < perClient; k++ {
						req := &serve.Request{Topo: "line4", Duration: 0.0002, Shards: 2,
							Seed: uint64(c*perClient + k + 1)}
						t0 := time.Now()
						_, err := srv.Submit(context.Background(), req)
						switch {
						case err == nil:
							d := float64(time.Since(t0)) / float64(time.Millisecond)
							latMu.Lock()
							if len(lats) < cap(lats) {
								lats = append(lats, d)
							}
							latMu.Unlock()
						case !errors.Is(err, serve.ErrShed):
							b.Error(err)
						}
					}
				}(c)
			}
			wg.Wait()
		}
	})
	out := record(name, r)
	st := srv.Snapshot()
	if st.Received > 0 {
		out.ShedRate = float64(st.Shed) / float64(st.Received)
	}
	out.Tiers = make(map[string]uint64, len(st.Fidelity))
	for tier, n := range st.Fidelity {
		if n > 0 {
			out.Tiers[tier] = n
		}
	}
	// Completed throughput at saturation: the non-shed fraction of each
	// episode's requests over the episode wall time.
	out.RequestsPerSec = float64(clients*perClient) * (1 - out.ShedRate) / (out.NsPerOp * 1e-9)
	if len(lats) > 0 {
		out.P50LatencyMs = metrics.Percentile(lats, 50)
		out.P99LatencyMs = metrics.Percentile(lats, 99)
	}
	return out, nil
}

// benchServeSweep drives the serving stack at increasing client counts
// (2, 4, 8, 16 concurrent clients, 2 requests each) and records the
// completed-request throughput per level in the Sweep map — the shape
// of the curve shows where the worker pool and the CPU floor flatten it.
// One op is the full sweep, so ns/op gates the whole curve.
func benchServeSweep(name string) (Bench, error) {
	serveArch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}
	model, err := ptm.Synthetic(serveArch, 8, 1)
	if err != nil {
		return Bench{}, err
	}
	runner := &serve.ScenarioRunner{DefaultModel: model, MaxShards: 2}
	srv, err := serve.New(serve.Config{
		// Deep enough that no level sheds: the sweep measures completed
		// throughput vs offered concurrency, not admission control.
		Workers: 2, QueueDepth: 64, RetryMax: -1,
		DefaultTimeout: 30 * time.Second, Seed: 1,
	}, runner)
	if err != nil {
		return Bench{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dqnbench: sweep drain: %v\n", err)
		}
	}()

	levels := []int{2, 4, 8, 16}
	const perClient = 2
	sweep := make(map[string]float64, len(levels))
	var sweepMu sync.Mutex
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, clients := range levels {
				start := time.Now()
				var wg sync.WaitGroup
				var completed int64
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer func() {
							if we := guard.RecoveredWorker(c, recover()); we != nil {
								b.Error(we)
							}
							wg.Done()
						}()
						for k := 0; k < perClient; k++ {
							req := &serve.Request{Topo: "line4", Duration: 0.0002, Shards: 2,
								Seed: uint64(c*perClient + k + 1)}
							_, err := srv.Submit(context.Background(), req)
							switch {
							case err == nil:
								atomic.AddInt64(&completed, 1)
							case !errors.Is(err, serve.ErrShed):
								b.Error(err)
							}
						}
					}(c)
				}
				wg.Wait()
				el := time.Since(start).Seconds()
				if el <= 0 || completed == 0 {
					continue
				}
				key := fmt.Sprintf("clients=%d", clients)
				rps := float64(completed) / el
				sweepMu.Lock()
				if rps > sweep[key] {
					sweep[key] = rps
				}
				sweepMu.Unlock()
			}
		}
	})
	out := record(name, r)
	out.Sweep = sweep
	st := srv.Snapshot()
	if st.Received > 0 {
		out.ShedRate = float64(st.Shed) / float64(st.Received)
	}
	return out, nil
}
