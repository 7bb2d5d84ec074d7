// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload, checks the outputs, and prints every metric by name with its
// unit; the last line of its output is one JSON object. -seconds sets the
// length of the offline workload's timed phase; the serving workloads'
// length is fixed by their request counts and rates.
//
//	go -C e2ebench run . -root .. -workload sim-fattree16 -seed 1 -seconds 30 -trace 0
//
// or, building dqnserve and the benchmark first, from the repository
// root: bash e2ebench/run.sh --workload serve-exact --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the median by which it may get worse
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. An operation is one what-if run for
// sim-fattree16 and one request for the serving workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},             // median of repeated set-ups
	{"lat_p50_ms", "ms", "lower", 0.25},         // median operation latency
	{"throughput_per_s", "1/s", "higher", 0.25}, // sim: deliveries per host-second; serve: requests/s with every connection busy
	{"w1_avg_rtt", "ratio", "lower", 0.25},      // normalized W1 of mean RTT against DES
	{"w1_p99_rtt", "ratio", "lower", 0.25},      // normalized W1 of P99 RTT against DES
	{"mem_peak_mb", "MB", "lower", 0.15},        // peak RSS of the process that runs the system
}

// perLayer are the single-layer metrics of a traced run. A metric whose
// layer the workload does not reach, or whose /metrics series the server
// no longer exports, is absent: it prints as 0 and is listed on the
// "absent:" line and in the result record.
var perLayer = []metricDef{
	{"ptm.load_s", "s", "lower", 0},
	{"topo.build_route_s", "s", "lower", 0},
	{"ptm.predict_us_per_window", "us", "lower", 0},
	{"core.iterations_per_run", "count", "lower", 0},
	{"core.infer_s_per_run", "s", "lower", 0},
	{"core.host_egress_s_per_run", "s", "lower", 0},
	{"core.other_s_per_run", "s", "lower", 0},
	{"core.outside_iter_s_per_run", "s", "lower", 0},
	{"core.shard_balance", "ratio", "lower", 0},
	{"core.infer_packets_per_run", "count", "lower", 0},
	{"runtime.alloc_mb_per_run", "MB", "lower", 0},
	{"runtime.gc_per_run", "count", "lower", 0},
	{"des.run_s", "s", "lower", 0},
	{"serve.job_ms_p50", "ms", "lower", 0},
	{"serve.wait_ms_p90", "ms", "lower", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.retries", "count", "lower", 0},
	{"serve.panics", "count", "lower", 0},
	{"serve.tier_match_ratio", "ratio", "higher", 0},
	{"serve.registry_evictions", "count", "lower", 0},
	{"plane.batch_size_mean", "count", "higher", 0},
	{"plane.coalesced_ratio", "ratio", "higher", 0},
	{"plane.batch_ms_mean", "ms", "lower", 0},
	{"plane.queue_depth_max", "count", "lower", 0},
	{"proc.cpu_ms_per_req", "ms", "lower", 0},
	{"proc.core_util", "ratio", "higher", 0},
	{"analytic.estimate_us_p50", "us", "lower", 0},
	{"topo.build_us_p50", "us", "lower", 0},
	{"analytic.unstable_ratio", "ratio", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.max_rate_rps", "1/s", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*outcome, error){
	"sim-fattree16": runSimWorkload,
	"serve-exact":   func(o opts) (*outcome, error) { return runServeWorkload(o, exactSpec) },
	"serve-fast":    func(o opts) (*outcome, error) { return runServeWorkload(o, fastSpec) },
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string    // repository root: models/ and the built server
	serveBin string    // the dqnserve binary
	outDir   string    // result records and traces: <root>/.bench_build/e2ebench
	rec      *recorder // span recorder of a traced run; nil when untraced
}

func (o opts) modelPath() string { return filepath.Join(o.root, "models", "switch8-fifo.ptm.json") }

// outcome collects what a workload measured and what it found wrong.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	notes     []string
	e2e       map[string]float64
	layer     map[string]float64
	rec       *recorder
}

func newOutcome(o opts) *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, rec: o.rec}
}

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations under one problem.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latencies records lat_p50_ms from operation latencies in
// milliseconds, in time order, and notes the p90 and p99 where there are
// enough samples for them. With window > 0 each figure is the median
// over consecutive windows of that many samples of the window's
// percentile. Too few samples for the median is a failure.
//
// The tails are reported but not gated: on a shared virtual machine
// they follow the hypervisor's CPU steal more than the code (serve-fast's
// p90 moved from 1.4 to 3.1 ms between runs with 1% and 11% steal).
func (o *outcome) latencies(what string, ms []float64, window int) {
	stat := func(p float64) (float64, error) {
		if window <= 0 {
			return percentile(ms, p)
		}
		return windowMedian(ms, window, func(w []float64) (float64, error) { return percentile(w, p) })
	}
	p50, err := stat(50)
	if err != nil {
		o.fail("%s latency: %v", what, err)
		return
	}
	o.e2e["lat_p50_ms"] = p50
	line := fmt.Sprintf("%s latency over %d samples", what, len(ms))
	if window > 0 {
		line += fmt.Sprintf(" (medians over windows of %d)", window)
	}
	line += fmt.Sprintf(": p50 %.3f ms", p50)
	for _, p := range []float64{90, 99} {
		if v, err := stat(p); err == nil {
			line += fmt.Sprintf(", p%v %.3f ms", p, v)
		}
	}
	o.note("%s", line)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result plus the environment it was measured in, kept
// under the output directory so result sets can be compared later.
type record struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Absent     []string `json:"absent,omitempty"`
	Problems   []string `json:"problems,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	Result     result   `json:"result"`
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "compare" || os.Args[1] == "summarize") {
		if err := compareCmd(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench "+os.Args[1]+":", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (opts, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o opts
	var seconds int
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	fs.IntVar(&seconds, "seconds", 30, "measured time of sim-fattree16's timed phase (the serving workloads are sized by request counts)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.root, "root", ".", "repository root (holds models/)")
	fs.StringVar(&o.serveBin, "serve-bin", "", "built dqnserve binary (serving workloads)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return o, errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if _, err := os.Stat(o.modelPath()); err != nil {
		return o, fmt.Errorf("model: %w", err)
	}
	o.outDir = filepath.Join(o.root, ".bench_build", "e2ebench")
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(o opts) error {
	if o.trace {
		o.rec = newRecorder()
	}
	steal0, wall0 := stealTime(), time.Now()
	out, err := workloads[o.workload](o)
	if err != nil {
		return err
	}
	if s0, s1 := steal0, stealTime(); s0 >= 0 && s1 >= 0 {
		// CPU time the hypervisor gave to other guests: on a shared host
		// it explains run-to-run drift that no code change caused.
		out.note("host steal during the run: %.1f%% of %d CPUs", 100*(s1-s0).Seconds()/
			(time.Since(wall0).Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	}
	defs := endToEnd
	values := out.e2e
	if o.trace {
		defs, values = perLayer, out.layer
		if out.attempted > 0 {
			values["fail_ratio"] = float64(out.failed) / float64(out.attempted)
		}
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	var absent []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || !finite(v) {
			if !o.trace {
				// Every end-to-end metric must be measured.
				res.Correct = false
				out.problems = append(out.problems, "end-to-end metric "+d.Name+" was not measured")
			}
			absent = append(absent, d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	if o.rec != nil {
		path := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, o.rec.spans); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(o.rec.spans), path)
		fmt.Printf("# %-22s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
		for _, lt := range selfTimes(o.rec.spans) {
			fmt.Printf("# %-22s %8d %12.3f %12.3f\n", lt.Name, lt.Count,
				lt.Total.Seconds()*1000, lt.Self.Seconds()*1000)
		}
	}
	for _, d := range defs {
		fmt.Printf("# %-30s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if len(absent) > 0 {
		fmt.Println("# absent:", strings.Join(absent, " "))
	}
	for _, p := range out.problems {
		fmt.Println("# FAILED:", p)
	}
	if err := writeRecord(o, res, absent, out); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeRecord(o opts, res result, absent []string, out *outcome) error {
	rc := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Absent: absent, Problems: out.problems, Notes: out.notes, Result: res}
	data, err := json.MarshalIndent(rc, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(o.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if o.trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t)), data, 0o644)
}

// stealTime is the machine's total stolen CPU time from /proc/stat, or
// -1 when it cannot be read.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return time.Duration(ticks) * clockTick
}
