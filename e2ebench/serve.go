package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
)

// serveSpec fixes the shape of one serving workload: what it asks for,
// at which rates, and the latency limit that defines a sustained rate.
type serveSpec struct {
	name     string
	tier     string // the X-Dqn-Fidelity every 200 must carry
	requests func(seed uint64, n int) []simRequest
	warmups  []simRequest // one per request shape, sent during set-up

	// The measured work is interleaved over rounds: each round offers
	// its share of the fixed-rate requests and of the saturation phase,
	// each share preceded by setups extra server starts (set-up samples,
	// with the load server idle). The host's speed drifts over seconds:
	// one exact request, repeated on an otherwise idle 2-vCPU host, took
	// between 0.13 and 0.23 s in streaks of a few seconds. Spread out
	// like this, every figure draws on the whole run rather than on one
	// stretch of it.
	rounds int
	setups int // extra server starts before each share; setup_s is the median of these and the load server's start

	fixedRate  float64       // the open-loop rate latency is reported at
	fixedN     int           // requests at the fixed rate, over all rounds
	fixedGrace time.Duration // a fixed-rate request unsent this long after the last due time failed
	window     int           // latency figures are medians over windows of this many requests (0: one window)
	satN       int           // closed-loop saturation, the throughput, over all rounds: this many requests…
	satTime    time.Duration // …or this long, whichever ends first
	satWindow  time.Duration // throughput is the median over windows this long (0: answered requests over the summed time)
	accuracyN  int           // answers checked against DES: fixed-rate first, then saturation

	// The traced run also walks a fixed ladder of open-loop rates, each
	// offered for rungTime (at least rungMin requests), and reports the
	// highest one whose rungPct latency stays within limit with no
	// request left unsent when the rung ends.
	ladder   []float64
	rungTime time.Duration
	rungMin  int
	rungPct  float64
	limit    time.Duration
}

// exactSpec: full-model line4 requests. Each waits for a worker and runs
// the model through the server's registry and default inference path.
// The fixed rate is about half of the ~7 req/s that two connections
// sustained on a 2-vCPU host, and high enough that its 100 requests (the
// fewest a p90 needs) fit in one run.
var exactSpec = serveSpec{
	name:       "serve-exact",
	tier:       "exact",
	requests:   exactRequests,
	warmups:    []simRequest{replayRequest},
	rounds:     8,
	setups:     1,
	fixedRate:  3.5,
	fixedN:     samplesFor(90),
	fixedGrace: 10 * time.Second,
	satN:       80,
	satTime:    time.Minute,
	accuracyN:  180,
	ladder:     []float64{4.5, 5.5, 6.5, 8, 10},
	rungTime:   4 * time.Second,
	rungMin:    samplesFor(50),
	rungPct:    50,
	limit:      time.Second,
}

// fastSpec: analytic-tier requests over a topology and traffic mix,
// answered inline without a worker or the model. The fixed rate sits well
// below the ~4000 req/s knee measured on a 2-vCPU host, where the load
// generator and the server do not yet contend for the CPUs.
var fastSpec = serveSpec{
	name:       "serve-fast",
	tier:       "analytic",
	requests:   fastRequests,
	warmups:    fastShapes(),
	rounds:     4,
	setups:     6,
	fixedRate:  500,
	fixedN:     8000,
	fixedGrace: 2 * time.Second,
	window:     samplesFor(99),
	satTime:    8 * time.Second,
	satWindow:  time.Second,
	accuracyN:  800,
	ladder:     []float64{1500, 2000, 3000, 4000, 5000, 6000},
	rungTime:   1500 * time.Millisecond,
	rungMin:    samplesFor(99),
	rungPct:    99,
	limit:      10 * time.Millisecond,
}

// fastShapes is one request per topology and traffic model of the
// serve-fast mix: the first request of each shape pays one-off costs
// (the traffic model's measured arrival variability, topology caches).
func fastShapes() []simRequest {
	var out []simRequest
	for _, t := range fastTopos {
		for _, tm := range fastTraffic {
			out = append(out, simRequest{Topo: t, Traffic: tm, Load: 0.3, Duration: 0.0005, Seed: 1, Fidelity: "fast"})
		}
	}
	return out
}

// server is one running dqnserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr *bytes.Buffer
	exited chan struct{} // closed once the process has exited and been reaped
	// waitErr is how the process ended; read it only after exited is
	// closed.
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs dqnserve with its default flags plus the model and
// -quiet, and returns once /readyz answers 200.
func startServer(o opts) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(o.serveBin, "-addr", addr, "-model", o.modelPath(), "-quiet")
		cmd.Dir = o.root
		// If the benchmark dies without stopping it, the server dies too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s := &server{cmd: cmd, base: "http://" + addr, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
		cmd.Stdout = io.Discard
		cmd.Stderr = s.stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", o.serveBin, err)
		}
		go s.reap()
		conns := runtime.GOMAXPROCS(0)
		s.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
		if lastErr = s.waitReady(20 * time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, lastErr
}

// reap waits for the process to exit and records how it ended.
func (s *server) reap() {
	defer close(s.exited)
	defer func() {
		if r := recover(); r != nil {
			s.waitErr = fmt.Errorf("waiting for dqnserve: %v", r)
		}
	}()
	s.waitErr = s.cmd.Wait()
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("dqnserve exited before ready (%w): %s", s.waitErr, strings.TrimSpace(s.stderr.String()))
		default:
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dqnserve not ready after %v", limit)
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	// A process that already exited is fine: exited is closed then.
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		fmt.Fprintln(os.Stderr, "e2ebench: stop dqnserve:", err)
	}
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		if err := s.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			fmt.Fprintln(os.Stderr, "e2ebench: kill dqnserve:", err)
		}
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

// serveResult is the part of a /simulate answer the benchmark checks.
type serveResult struct {
	Deliveries int     `json:"deliveries"`
	MeanRTTUs  float64 `json:"mean_rtt_us"`
	P99RTTUs   float64 `json:"p99_rtt_us"`
	Digest     string  `json:"digest"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// reply is one answered request.
type reply struct {
	res serveResult
	err error // nil only for a 200 from the requested tier with finite RTTs
}

// simulate posts one request and checks the answer.
func (s *server) simulate(ctx context.Context, body []byte, tier string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/simulate", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	var r reply
	if err := json.Unmarshal(data, &r.res); err != nil {
		return reply{err: fmt.Errorf("decode answer: %w", err)}
	}
	got := resp.Header.Get("X-Dqn-Fidelity")
	switch {
	case got != tier:
		r.err = fmt.Errorf("answered by tier %q, want %q", got, tier)
	case !finite(r.res.MeanRTTUs) || !finite(r.res.P99RTTUs) || r.res.MeanRTTUs <= 0 || r.res.P99RTTUs <= 0:
		r.err = fmt.Errorf("RTTs not finite and positive: mean %v, p99 %v", r.res.MeanRTTUs, r.res.P99RTTUs)
	case tier == "exact" && (r.res.Digest == "" || r.res.Deliveries == 0):
		r.err = errors.New("exact answer without deliveries or digest")
	}
	return r
}

// getJSON fetches a JSON document; a missing or undecodable document is
// reported as absent (nil), never as an error, so a server that drops an
// endpoint cannot break the benchmark.
func (s *server) getJSON(path string) map[string]any {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var v map[string]any
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&v) != nil {
		return nil
	}
	return v
}

// scrape fetches /metrics; nil when the server does not export it.
func (s *server) scrape() promSample {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	p, err := parseProm(resp.Body)
	if err != nil {
		return nil
	}
	return p
}

// procStat is a process's CPU time and peak resident memory from /proc.
type procStat struct {
	cpu    time.Duration
	peakMB float64
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ps.cpu = time.Duration(ut+st) * clockTick
	ps.peakMB, err = peakMB(fmt.Sprintf("/proc/%d/status", pid))
	return ps, err
}

// peakMB reads VmHWM, the peak resident set, from a /proc status file.
func peakMB(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// selfPeakMB is the benchmark process's own peak RSS, for the offline
// workload where the benchmark process runs the system.
func selfPeakMB() float64 {
	mb, err := peakMB("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	return mb
}

// phase is one open-loop phase's requests and answers.
type phase struct {
	reqs    []simRequest
	shots   []shot
	replies []reply
	start   time.Time
	cpu     time.Duration // server CPU time spent during the phase
	wall    time.Duration
}

// okLatenciesMs are the latencies of the phase's good answers.
func (p *phase) okLatenciesMs() []float64 {
	var out []float64
	for i, sh := range p.shots {
		if !sh.Unsent && sh.Err == nil && p.replies[i].err == nil {
			out = append(out, sh.Latency().Seconds()*1000)
		}
	}
	return out
}

// failures are the phase's requests that were not answered correctly
// or never sent.
func (p *phase) failures() (bad, unsent int, first error) {
	for i, sh := range p.shots {
		switch {
		case sh.Unsent:
			unsent++
		case sh.Err != nil:
			bad++
			if first == nil {
				first = sh.Err
			}
		case p.replies[i].err != nil:
			bad++
			if first == nil {
				first = p.replies[i].err
			}
		}
	}
	return bad, unsent, first
}

// answered is how many requests the phase sent and when the last answer
// arrived, from the phase start.
func (p *phase) answered() (n int, last time.Duration) {
	for _, sh := range p.shots {
		if !sh.Unsent {
			n++
			last = max(last, sh.Done)
		}
	}
	return n, last
}

// windowRates are the phase's correctly answered requests per second in
// each full window of the given length, counted by completion time.
func (p *phase) windowRates(window time.Duration) []float64 {
	rates := make([]float64, int(p.wall/window))
	for i, sh := range p.shots {
		if sh.Unsent || sh.Err != nil || p.replies[i].err != nil {
			continue
		}
		if k := int(sh.Done / window); k < len(rates) {
			rates[k]++
		}
	}
	for k := range rates {
		rates[k] /= window.Seconds()
	}
	return rates
}

// throughput is the saturation phases' answered requests per second:
// with window > 0 the median over their full windows of that length,
// otherwise (or when no phase fills a window) all answers over the
// phases' summed time to their last answer.
func throughput(phases []*phase, window time.Duration) float64 {
	if window > 0 {
		var rates []float64
		for _, p := range phases {
			rates = append(rates, p.windowRates(window)...)
		}
		if len(rates) > 0 {
			return medianOf(rates)
		}
	}
	n, t := 0, time.Duration(0)
	for _, p := range phases {
		pn, last := p.answered()
		n, t = n+pn, t+last
	}
	if t <= 0 {
		return 0
	}
	return float64(n) / t.Seconds()
}

// share is the k-th of n consecutive, equal parts of reqs (the last
// takes any remainder).
func share(reqs []simRequest, k, n int) []simRequest {
	size := len(reqs) / n
	if k == n-1 {
		return reqs[k*size:]
	}
	return reqs[k*size : (k+1)*size]
}

// joinPhases concatenates phases run one after another into one: shot
// times are rebased to the first phase's start, and wall and CPU time
// are the phases' sums.
func joinPhases(phases []*phase) *phase {
	j := &phase{start: phases[0].start}
	for _, p := range phases {
		off := p.start.Sub(j.start)
		j.reqs = append(j.reqs, p.reqs...)
		j.replies = append(j.replies, p.replies...)
		for _, sh := range p.shots {
			sh.Due, sh.Sent, sh.Done = sh.Due+off, sh.Sent+off, sh.Done+off
			j.shots = append(j.shots, sh)
		}
		j.wall += p.wall
		j.cpu += p.cpu
	}
	return j
}

// runPhase offers reqs at rate over at most GOMAXPROCS connections, a
// request unsent limit after the last due time left unsent; or, with
// rate 0, keeps every connection busy until reqs are answered or limit
// has passed.
func (s *server) runPhase(spec serveSpec, reqs []simRequest, rate float64, limit time.Duration, pid int) (*phase, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	p := &phase{reqs: reqs, replies: make([]reply, len(reqs))}
	before, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	send := func(ctx context.Context, i int) error {
		p.replies[i] = s.simulate(ctx, bodies[i], spec.tier)
		return nil
	}
	conns := runtime.GOMAXPROCS(0)
	p.start = time.Now()
	if rate > 0 {
		p.shots = openLoop(context.Background(), constantRate(len(reqs), rate), conns, limit, send)
	} else {
		p.shots = closedLoop(context.Background(), len(reqs), conns, limit, send)
		p.reqs, p.replies = p.reqs[:len(p.shots)], p.replies[:len(p.shots)]
	}
	p.wall = time.Since(p.start)
	after, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	p.cpu = after.cpu - before.cpu
	return p, nil
}

// passes reports whether a ladder rung met the limit: every request
// answered correctly, none left unsent when the rung ended (the backlog
// did not grow), and the rung percentile within the latency limit.
func (p *phase) passes(spec serveSpec) (bool, string) {
	bad, unsent, first := p.failures()
	if bad > 0 {
		return false, fmt.Sprintf("%d failed (%v)", bad, first)
	}
	if unsent > 0 {
		return false, fmt.Sprintf("%d unsent at rung end", unsent)
	}
	v, err := percentile(p.okLatenciesMs(), spec.rungPct)
	if err != nil {
		return false, err.Error()
	}
	if v > spec.limit.Seconds()*1000 {
		return false, fmt.Sprintf("p%v %.1f ms over the %v limit", spec.rungPct, v, spec.limit)
	}
	return true, fmt.Sprintf("p%v %.1f ms", spec.rungPct, v)
}

// genLateMs is the generator's own lateness over the shots: p99 when
// there are enough samples for it, the maximum otherwise.
func genLateMs(shots []shot) float64 {
	var xs []float64
	for _, sh := range shots {
		if !sh.Unsent {
			xs = append(xs, sh.GenLate.Seconds()*1000)
		}
	}
	if v, err := percentile(xs, 99); err == nil {
		return v
	}
	return maxOf(xs)
}

// runServeWorkload runs serve-exact or serve-fast against a dqnserve
// process built from this checkout.
func runServeWorkload(o opts, spec serveSpec) (*outcome, error) {
	out := newOutcome(o)
	if o.serveBin == "" {
		return nil, errors.New("serving workloads need -serve-bin")
	}
	// The load generator shares the CPUs with the server; collecting its
	// garbage less often keeps it from stalling requests at high rates.
	defer debug.SetGCPercent(debug.SetGCPercent(800))

	// Set-up: exec until /readyz answers 200, plus one warm-up request
	// per request shape. This first server takes the load; the rounds
	// below time further starts.
	var setups, readys []float64
	start := func() (*server, error) {
		t0 := time.Now()
		s, err := startServer(o)
		if err != nil {
			return nil, err
		}
		readys = append(readys, time.Since(t0).Seconds())
		for _, w := range spec.warmups {
			body, _ := json.Marshal(w) // a plain struct always encodes
			out.attempted++
			if r := s.simulate(context.Background(), body, spec.tier); r.err != nil {
				out.fail("warm-up %s: %v", w.Topo, r.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		return s, nil
	}
	srv, err := start()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	// Untimed check: one fixed exact request, replayed, repeats its
	// digest, and that digest matches a direct library run.
	if err := checkReplay(o, out, srv); err != nil {
		return nil, err
	}

	// Inputs: the fixed-rate requests, the saturation requests (when
	// time-bound, sized for a server far faster than today's), and for a
	// traced run the untraced reference half and the ladder.
	satN := spec.satN
	if satN == 0 {
		satN = int(spec.satTime.Seconds() * spec.ladder[len(spec.ladder)-1] * 2)
	}
	sizes := []int{spec.fixedN, satN}
	if o.trace {
		sizes = append(sizes, spec.fixedN/2)
		for _, rate := range spec.ladder {
			sizes = append(sizes, max(spec.rungMin, int(math.Round(rate*spec.rungTime.Seconds()))))
		}
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	all := spec.requests(o.seed, total)
	part := func(k int) []simRequest {
		off := 0
		for _, n := range sizes[:k] {
			off += n
		}
		return all[off : off+sizes[k]]
	}

	var ref *phase
	var m0 promSample
	var st0 map[string]any
	var sampler *depthSampler
	if o.trace {
		if ref, err = srv.runPhase(spec, part(2), spec.fixedRate, spec.fixedGrace, pid); err != nil {
			return nil, err
		}
		out.attempted += len(ref.reqs)
		if bad, unsent, first := ref.failures(); bad+unsent > 0 {
			out.failN(bad+unsent, "untraced reference phase: %d failed, %d unsent (%v)", bad, unsent, first)
		}
		settle()
		m0, st0 = srv.scrape(), srv.getJSON("/stats")
		sampler = startSampler(srv)
	}

	// The rounds: a share of the fixed-rate open loop (the latency
	// figures) and of the closed-loop saturation (every connection kept
	// busy; the answered rate is the throughput), each preceded by set-up
	// samples (not in a traced run, which reports no set-up time).
	var fixedParts, satParts []*phase
	fixedReqs, satReqs := part(0), part(1)
	extraStarts := func() error {
		for k := 0; k < spec.setups && !o.trace; k++ {
			s, err := start()
			if err != nil {
				return err
			}
			s.stop()
		}
		settle()
		return nil
	}
	for r := 0; r < spec.rounds; r++ {
		if err := extraStarts(); err != nil {
			return nil, err
		}
		f, err := srv.runPhase(spec, share(fixedReqs, r, spec.rounds), spec.fixedRate, spec.fixedGrace, pid)
		if err != nil {
			return nil, err
		}
		fixedParts = append(fixedParts, f)
		if err := extraStarts(); err != nil {
			return nil, err
		}
		st, err := srv.runPhase(spec, share(satReqs, r, spec.rounds), 0, spec.satTime/time.Duration(spec.rounds), pid)
		if err != nil {
			return nil, err
		}
		satParts = append(satParts, st)
	}
	if !o.trace {
		out.e2e["setup_s"] = medianOf(setups)
		out.note("set-up over %d starts: median %.4f s (%.4f to %.4f), of which until /readyz %.4f s",
			len(setups), medianOf(setups), slices.Min(setups), slices.Max(setups), medianOf(readys))
	}

	fixed := joinPhases(fixedParts)
	out.attempted += len(fixed.reqs)
	if bad, unsent, first := fixed.failures(); bad+unsent > 0 {
		out.failN(bad+unsent, "fixed-rate phase: %d failed, %d unsent (first: %v)", bad, unsent, first)
	}
	out.latencies(fmt.Sprintf("%s at %v req/s", spec.name, spec.fixedRate), fixed.okLatenciesMs(), spec.window)
	// The generator's own lateness must stay inside the latency limit,
	// or the run measured the generator rather than the server.
	if late := genLateMs(fixed.shots); late > spec.limit.Seconds()*1000 {
		out.fail("load generator fell behind: lateness %.2f ms over the %v limit", late, spec.limit)
	}

	sat := joinPhases(satParts)
	out.attempted += len(sat.reqs)
	if bad, _, first := sat.failures(); bad > 0 {
		out.failN(bad, "saturation phase: %d failed (first: %v)", bad, first)
	}
	out.e2e["throughput_per_s"] = throughput(satParts, spec.satWindow)
	out.note("saturation at %d connections: %d requests, %.3f req/s", runtime.GOMAXPROCS(0), len(sat.reqs), out.e2e["throughput_per_s"])

	if o.trace {
		shots := append(append([]shot(nil), fixed.shots...), sat.shots...)
		m1, st1 := srv.scrape(), srv.getJSON("/stats")
		depth, planeDepth, err := sampler.stop()
		if err != nil {
			out.fail("%v", err)
		}
		rate, rungShots, err := walkLadder(out, srv, spec, part, pid)
		if err != nil {
			return nil, err
		}
		setIfMeasured(out, "loadgen.max_rate_rps", rate)
		shots = append(shots, rungShots...)
		serveLayers(out, spec, fixed, ref, sat, shots, m0, m1, st0, st1, depth, planeDepth)
		model, err := ptm.Load(o.modelPath())
		if err != nil {
			return nil, err
		}
		return out, libraryProbes(o, out, model, nil)
	}

	ps, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	out.e2e["mem_peak_mb"] = ps.peakMB
	t0 := time.Now()
	err = accuracy(out, spec, fixed, sat)
	out.note("accuracy check against DES: %v", time.Since(t0).Round(time.Millisecond))
	return out, err
}

// walkLadder offers the ladder's rates in turn until one misses the
// limit and returns the highest that met it (NaN if none did). Misses on
// a rung above the knee are the measurement, not failed operations;
// wrong answers on any rung are.
func walkLadder(out *outcome, srv *server, spec serveSpec, part func(int) []simRequest, pid int) (float64, []shot, error) {
	best := math.NaN()
	var shots []shot
	for i, rate := range spec.ladder {
		settle()
		rung, err := srv.runPhase(spec, part(3+i), rate, spec.limit, pid)
		if err != nil {
			return 0, nil, err
		}
		shots = append(shots, rung.shots...)
		out.attempted += len(rung.reqs)
		if bad, _, first := rung.failures(); bad > 0 {
			out.failN(bad, "rung %v req/s: %d wrong answers (first: %v)", rate, bad, first)
		}
		ok, why := rung.passes(spec)
		out.note("ladder rung %v req/s (%d requests): %s", rate, len(rung.reqs), why)
		if !ok {
			break
		}
		best = rate
	}
	return best, shots, nil
}

// accuracy compares the first spec.accuracyN answers (fixed-rate phase
// first, then saturation) with DES ground truth of the same scenarios
// (untimed): normalized W1 between the answered and the true per-request
// mean and P99 RTTs, within each topology (RTT scales differ by orders
// of magnitude between them), averaged over topologies.
func accuracy(out *outcome, spec serveSpec, phases ...*phase) error {
	type acc struct{ predMean, predP99, truthMean, truthP99 []float64 }
	byTopo := map[string]*acc{}
	var topos []string
	var reqs []simRequest
	var replies []reply
	for _, p := range phases {
		for i, sh := range p.shots {
			if !sh.Unsent && sh.Err == nil && p.replies[i].err == nil {
				reqs = append(reqs, p.reqs[i])
				replies = append(replies, p.replies[i])
			}
		}
	}
	n := 0
	for i := 0; i < spec.accuracyN && i < len(reqs); i++ {
		req, res := reqs[i], replies[i].res
		sc, err := buildScenario(req)
		if err != nil {
			return err
		}
		var all []float64
		for _, v := range sc.RunDES() {
			all = append(all, v...)
		}
		a := byTopo[req.Topo]
		if a == nil {
			a = &acc{}
			byTopo[req.Topo] = a
			topos = append(topos, req.Topo)
		}
		a.predMean = append(a.predMean, res.MeanRTTUs/1e6)
		a.predP99 = append(a.predP99, res.P99RTTUs/1e6)
		a.truthMean = append(a.truthMean, metrics.Mean(all))
		a.truthP99 = append(a.truthP99, metrics.Percentile(all, 99))
		n++
	}
	if n < spec.accuracyN {
		out.fail("only %d of %d answers available for the accuracy check", n, spec.accuracyN)
		return nil
	}
	var w1Mean, w1P99 []float64
	for _, t := range topos {
		a := byTopo[t]
		w1Mean = append(w1Mean, metrics.NormW1(a.predMean, a.truthMean))
		w1P99 = append(w1P99, metrics.NormW1(a.predP99, a.truthP99))
	}
	out.e2e["w1_avg_rtt"] = mean(w1Mean)
	out.e2e["w1_p99_rtt"] = mean(w1P99)
	return nil
}

// setIfMeasured records a per-layer value unless it is NaN (absent).
func setIfMeasured(out *outcome, name string, v float64) {
	if finite(v) {
		out.layer[name] = v
	}
}

// settle lets the server finish stray work between phases.
func settle() { time.Sleep(100 * time.Millisecond) }

// checkReplay sends the fixed exact request several times and checks
// every answer carries one digest, equal to a direct library run of the
// same scenario.
func checkReplay(o opts, out *outcome, srv *server) error {
	const replays = 3
	body, _ := json.Marshal(replayRequest) // a plain struct always encodes
	var digests []string
	for k := 0; k < replays; k++ {
		out.attempted++
		r := srv.simulate(context.Background(), body, "exact")
		if r.err != nil {
			out.fail("replay %d: %v", k, r.err)
			continue
		}
		digests = append(digests, r.res.Digest)
	}
	model, err := ptm.Load(o.modelPath())
	if err != nil {
		return err
	}
	sc, err := buildScenario(replayRequest)
	if err != nil {
		return err
	}
	_, res, err := sc.RunDQNCfg(model, core.Config{Shards: replayRequest.Shards})
	out.attempted++
	if err != nil {
		out.fail("direct run of the replay request: %v", err)
		return nil
	}
	want := deliveryDigest(res)
	for k, d := range digests {
		if d != want {
			out.fail("replay %d digest %.12s… differs from the direct run's %.12s…", k, d, want)
		}
	}
	return nil
}

// depthSampler polls /metrics during a traced run for the peak depth of
// the admission queue and of the inference plane's queue.
type depthSampler struct {
	done   chan struct{}
	wg     sync.WaitGroup
	err    error // a panic in the sampler, reported by stop
	depth  float64
	plane  float64
	seenQ  bool
	seenPl bool
}

func startSampler(srv *server) *depthSampler {
	// Poll over a connection of its own, so the load keeps all of its.
	poll := *srv
	poll.client = &http.Client{Timeout: 5 * time.Second}
	d := &depthSampler{done: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				d.err = fmt.Errorf("queue-depth sampler: %v", r)
			}
		}()
		defer poll.client.CloseIdleConnections()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-t.C:
			}
			m := poll.scrape()
			if v, ok := m.get("dqn_queue_depth"); ok {
				d.seenQ = true
				d.depth = math.Max(d.depth, v)
			}
			if v, ok := m.get("dqn_batch_queue_depth"); ok {
				d.seenPl = true
				d.plane = math.Max(d.plane, v)
			}
		}
	}()
	return d
}

// stop ends sampling and returns the peak depths, NaN when the series
// was never exported.
func (d *depthSampler) stop() (queue, plane float64, err error) {
	close(d.done)
	d.wg.Wait()
	queue, plane, err = math.NaN(), math.NaN(), d.err
	if d.seenQ {
		queue = d.depth
	}
	if d.seenPl {
		plane = d.plane
	}
	return queue, plane, err
}

// serveLayers derives the serving, plane and process metrics of a
// traced run and records request → server job spans.
func serveLayers(out *outcome, spec serveSpec, fixed, ref, sat *phase, shots []shot,
	m0, m1 promSample, st0, st1 map[string]any, depth, planeDepth float64) {
	var jobs, waits []float64
	for i, sh := range fixed.shots {
		r := fixed.replies[i]
		if sh.Unsent || r.err != nil {
			continue
		}
		due := fixed.start.Add(sh.Due)
		done := fixed.start.Add(sh.Done)
		job := time.Duration(r.res.ElapsedMs * float64(time.Millisecond))
		trace := out.rec.newID()
		out.rec.add(trace, trace, 0, "serve.request", due, done)
		out.rec.add(trace, out.rec.newID(), trace, "serve.job", done.Add(-job), done)
		jobs = append(jobs, r.res.ElapsedMs)
		waits = append(waits, sh.Latency().Seconds()*1000-r.res.ElapsedMs)
	}
	setIf := func(name string, v float64, ok bool) {
		if ok {
			setIfMeasured(out, name, v)
		}
	}
	v, err := median(jobs)
	setIf("serve.job_ms_p50", v, err == nil)
	v, err = percentile(waits, 90)
	setIf("serve.wait_ms_p90", v, err == nil)
	setIf("serve.queue_depth_max", depth, true)
	setIf("plane.queue_depth_max", planeDepth, true)

	stat := func(key string) (float64, bool) {
		a, ok1 := st1[key].(float64)
		b, ok2 := st0[key].(float64)
		return a - b, ok1 && ok2
	}
	for _, k := range []struct{ metric, key string }{
		{"serve.shed", "shed"}, {"serve.retries", "retries"}, {"serve.panics", "panics"},
	} {
		v, ok := stat(k.key)
		setIf(k.metric, v, ok)
	}
	if completed, ok := stat("completed"); ok && completed > 0 {
		f1, ok1 := st1["fidelity"].(map[string]any)
		f0, ok0 := st0["fidelity"].(map[string]any)
		if ok1 && ok0 {
			a, _ := f1[spec.tier].(float64)
			b, _ := f0[spec.tier].(float64)
			out.layer["serve.tier_match_ratio"] = (a - b) / completed
		}
	}
	v, ok := delta(m0, m1, "dqn_runner_cache_evictions_total")
	setIf("serve.registry_evictions", v, ok)
	v, ok = ratioDelta(m0, m1, "dqn_batch_size_sum", "dqn_batch_size_count")
	setIf("plane.batch_size_mean", v, ok)
	v, ok = ratioDelta(m0, m1, "dqn_batch_coalesced_total", "dqn_batch_calls_total")
	setIf("plane.coalesced_ratio", v, ok)
	v, ok = ratioDelta(m0, m1, "dqn_batch_seconds_sum", "dqn_batch_seconds_count")
	setIf("plane.batch_ms_mean", v*1000, ok)

	if n := len(fixed.okLatenciesMs()); n > 0 {
		out.layer["proc.cpu_ms_per_req"] = fixed.cpu.Seconds() * 1000 / float64(n)
	}
	if sat.wall > 0 {
		out.layer["proc.core_util"] = sat.cpu.Seconds() / (sat.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	out.layer["loadgen.late_p99_ms"] = genLateMs(shots)
	if ref != nil {
		a, err1 := median(fixed.okLatenciesMs())
		b, err2 := median(ref.okLatenciesMs())
		setIf("trace.overhead_ratio", a/b, err1 == nil && err2 == nil && b > 0)
	}
}
