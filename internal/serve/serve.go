// Package serve is the resilient simulation-serving layer: it runs
// concurrent DeepQueueNet jobs (Sim.RunContext via a Runner) through a
// bounded worker pool behind a bounded admission queue, propagates
// per-request deadlines, sheds load with Retry-After when the queue is
// full, contains repeated model failures behind per-model-path circuit
// breakers (reusing the engine's degraded-FIFO fallback while open),
// retries transient faults with exponential backoff and jitter, and
// drains in-flight jobs on shutdown. The failure taxonomy is
// internal/guard's: shard panics, divergence, cancellation, deadlines,
// and breaker-open states all stay inspectable with errors.Is/As.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/rng"
)

// Config tunes the server's resilience envelope.
type Config struct {
	// Workers is the number of concurrently executing simulation jobs.
	// <= 0 uses 2.
	Workers int
	// QueueDepth bounds the admission queue beyond the in-flight jobs;
	// a request arriving with the queue full is shed with 429 +
	// Retry-After instead of queuing unboundedly. <= 0 uses 8.
	QueueDepth int
	// DefaultTimeout is the per-job deadline when the request names
	// none. <= 0 uses 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. <= 0 uses 2m.
	MaxTimeout time.Duration
	// RetryMax is how many times a transient job failure (shard panic,
	// divergence) is retried before surfacing. < 0 disables retries;
	// 0 uses 2.
	RetryMax int
	// RetryBase is the first backoff delay; attempt n waits
	// RetryBase·2ⁿ plus jitter, capped at RetryCap. <= 0 uses 25ms.
	RetryBase time.Duration
	// RetryCap bounds a single backoff delay. <= 0 uses 1s.
	RetryCap time.Duration
	// Breaker configures the per-model-path circuit breakers.
	Breaker BreakerConfig
	// Seed seeds the jitter generator (deterministic tests). 0 uses 1.
	Seed uint64
	// Now is the clock (injectable for deterministic breaker tests);
	// nil uses time.Now.
	Now func() time.Time
	// MaxBodyBytes caps the size of a /simulate request body; an
	// oversized body is refused with 413 before any decoding buffers
	// grow. <= 0 uses 2 MiB.
	MaxBodyBytes int64
	// StateDir, when non-empty, makes jobs durable: every admitted job
	// gets an atomically persisted JSON record under StateDir, running
	// jobs checkpoint their epoch state there, and a restarted server
	// re-enqueues every record that was pending or interrupted when the
	// previous process died — resuming mid-run jobs from their last
	// snapshot. Empty disables durability (no files, no overhead).
	StateDir string
	// CheckpointEvery is the epoch cadence (in IRSA iterations) of
	// durable jobs' snapshots. <= 0 uses 1 (every boundary).
	CheckpointEvery int
	// Brownout enables deadline-aware fidelity degradation: when the
	// admission queue would shed a request, or a job's remaining
	// deadline is below the estimated exact run time for its topology,
	// the server answers from a cheaper ladder rung (quantized model or
	// analytic estimate) instead of returning 429 or running into the
	// deadline. Requests with fidelity "exact" are never browned out.
	Brownout bool
	// Metrics is the registry the server's observability series register
	// in (exposed at GET /metrics). nil creates a private registry,
	// reachable via Server.Metrics.
	Metrics *obs.Registry
	// Logger, when non-nil, receives one structured record per finished
	// HTTP exchange (method, path, status, duration, bytes).
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// ErrShed marks a request refused at admission because the queue was
// full (HTTP 429 + Retry-After).
var ErrShed = errors.New("serve: overloaded, request shed")

// ErrDraining marks a request refused because the server is draining
// for shutdown (HTTP 503 + Retry-After).
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrBreakerOpen marks an exact-fidelity request refused because its
// model's circuit breaker is open: the client opted out of the
// degradation ladder, so there is nothing left to answer with
// (HTTP 503 + Retry-After).
var ErrBreakerOpen = errors.New("serve: model circuit breaker open")

// jobOutcome is what a worker hands back to the waiting submitter.
type jobOutcome struct {
	res *Result
	err error
}

// job is one admitted request traveling through the queue. id and rec
// are set only in durable mode; cancel lets Drain interrupt the job so
// its engine writes a final snapshot inside the shutdown budget.
type job struct {
	req    *Request
	ctx    context.Context
	cancel context.CancelFunc
	done   chan jobOutcome // buffered(1): a worker never blocks finishing

	id  string
	rec *JobRecord
}

// finish delivers the outcome exactly once.
func (j *job) finish(res *Result, err error) {
	j.done <- jobOutcome{res, err}
}

// counters is the server's monotonic event counts (atomics; exported
// snapshot via Stats).
type counters struct {
	received  atomic.Uint64 // simulate requests seen
	accepted  atomic.Uint64 // admitted into the queue
	completed atomic.Uint64 // finished successfully (incl. degraded)
	failed    atomic.Uint64 // finished with a non-context error
	shed      atomic.Uint64 // refused with 429 (queue full)
	rejected  atomic.Uint64 // refused with 503 (draining)
	retries   atomic.Uint64 // transient-failure re-executions
	canceled  atomic.Uint64 // jobs ended by cancellation
	deadline  atomic.Uint64 // jobs ended by deadline
	degraded  atomic.Uint64 // jobs rerouted down the ladder by an open breaker
	brownouts atomic.Uint64 // jobs answered below exact fidelity under pressure
	panics    atomic.Uint64 // worker-level recovered panics
	inflight  atomic.Int64  // jobs currently executing

	// Per-tier completion counts: exactly one increments per completed
	// request, so their sum equals completed at every quiescent point.
	fidExact    atomic.Uint64
	fidQuant    atomic.Uint64
	fidAnalytic atomic.Uint64
	fidFIFO     atomic.Uint64
}

// Server owns the worker pool, admission queue, breakers, and stats.
// Build with New, serve HTTP through Handler, stop with Drain.
type Server struct {
	cfg    Config
	runner Runner

	queue  chan *job
	closed chan struct{} // closes when workers must exit
	wg     sync.WaitGroup
	jobWG  sync.WaitGroup // tracks admitted-but-unfinished jobs

	// drainMu orders jobWG.Add against Drain's jobWG.Wait: Submit
	// increments under the read lock only after seeing draining false,
	// and Drain flips the flag under the write lock before waiting, so
	// no Add can start from a zero counter while Wait runs.
	drainMu   sync.RWMutex
	draining  atomic.Bool
	drainOnce sync.Once

	breakerMu sync.Mutex
	breakers  map[string]*Breaker

	jitterMu sync.Mutex
	jitter   *rng.Rand

	// store and active exist only in durable mode: the job store under
	// Config.StateDir and the cancel functions of admitted jobs (Drain
	// cancels them so engines checkpoint and exit inside the budget).
	store    *jobStore
	activeMu sync.Mutex
	active   map[string]context.CancelFunc

	stats     counters
	met       *serverMetrics
	avgRunNs  atomic.Int64 // EWMA of job wall time, drives Retry-After
	estimator runEstimator // per-topology EWMA of exact run time, drives brownout
}

// New builds a Server and starts its worker pool. With Config.StateDir
// set it also opens the durable job store and re-enqueues every
// recoverable record the previous process left behind; the only error
// New can return is a state-directory failure.
func New(cfg Config, runner Runner) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		runner:   runner,
		queue:    make(chan *job, cfg.QueueDepth),
		closed:   make(chan struct{}),
		breakers: make(map[string]*Breaker),
		jitter:   rng.New(cfg.Seed),
	}
	var recovered []*JobRecord
	if cfg.StateDir != "" {
		store, err := openJobStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.active = make(map[string]context.CancelFunc)
		if recovered, err = store.recoverable(); err != nil {
			return nil, fmt.Errorf("serve: scan recoverable jobs: %w", err)
		}
	}
	s.met = newServerMetrics(cfg.Metrics, s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if len(recovered) > 0 {
		s.jobWG.Add(1)
		go s.recoverJobs(recovered)
	}
	return s, nil
}

// recoverJobs re-enqueues the previous process's unfinished jobs, in ID
// order. Each goes through the normal admission accounting (received,
// accepted, terminal outcome), so the terminal-accounting invariant
// holds per process even across restarts. Runs under jobWG so Drain
// waits for recovery to settle.
func (s *Server) recoverJobs(recs []*JobRecord) {
	defer s.jobWG.Done()
	defer func() {
		if we := guard.RecoveredWorker(-1, recover()); we != nil {
			// A recovery panic must not kill the server; unrecovered
			// records stay on disk for the next process.
			s.stats.panics.Add(1)
		}
	}()
	for _, rec := range recs {
		if s.draining.Load() {
			return // records stay recoverable for the next process
		}
		rec.Restarts++
		rec.Status = JobPending
		if err := s.store.put(rec); err != nil {
			continue
		}
		s.met.recovered.Inc()
		s.resubmit(rec)
	}
}

// resubmit runs one recovered record through admission. The original
// client is gone, so the job runs under a fresh deadline and its result
// lands in the record (retrievable via GET /jobs/{id}).
func (s *Server) resubmit(rec *JobRecord) {
	s.stats.received.Add(1)
	s.met.received.Inc()
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		return // still recoverable; not counted as rejected
	}
	s.jobWG.Add(1)
	s.drainMu.RUnlock()
	jctx, cancel := context.WithTimeout(context.Background(), s.timeoutFor(rec.Request))
	j := &job{req: rec.Request, ctx: jctx, cancel: cancel, done: make(chan jobOutcome, 1), id: rec.ID, rec: rec}
	s.registerActive(j)
	select {
	case s.queue <- j:
		s.stats.accepted.Add(1)
		s.met.accepted.Inc()
	case <-s.closed:
		s.unregisterActive(j)
		cancel()
		s.jobWG.Done()
	}
	// Nobody waits on j.done; the worker's finish lands in the buffered
	// channel and the record carries the outcome.
}

// registerActive and unregisterActive maintain the drain-cancel set.
func (s *Server) registerActive(j *job) {
	if s.store == nil || j.id == "" {
		return
	}
	s.activeMu.Lock()
	s.active[j.id] = j.cancel
	s.activeMu.Unlock()
}

func (s *Server) unregisterActive(j *job) {
	if s.store == nil || j.id == "" {
		return
	}
	s.activeMu.Lock()
	delete(s.active, j.id)
	s.activeMu.Unlock()
}

// worker pulls jobs until the server closes. Each job runs behind
// serveJob's panic isolation; this outer recover is the last line that
// keeps a worker goroutine from taking down the process.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	defer func() {
		if we := guard.RecoveredWorker(i, recover()); we != nil {
			// Unreachable in practice (serveJob recovers per-job), but a
			// panic here must still not kill the process.
			s.stats.panics.Add(1)
		}
	}()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			s.serveJob(i, j)
		}
	}
}

// Submit admits a request and blocks until its job finishes or ctx
// ends. It is the transport-independent core of POST /simulate: HTTP
// handlers and benchmarks call it directly. The returned error is one
// of: nil, ErrShed, ErrDraining, ErrBadRequest, a guard error
// (ErrCanceled/ErrDeadline/ShardError/DivergenceError/WorkerError), or
// a runner failure.
func (s *Server) Submit(ctx context.Context, req *Request) (*Result, error) {
	res, _, err := s.SubmitJob(ctx, req)
	return res, err
}

// SubmitJob is Submit plus the job's durable ID ("" when the server has
// no StateDir or the job was refused at admission). A client holding
// the ID can retrieve the job's final record through GET /jobs/{id}
// even if its own connection dies mid-run — including across a server
// restart.
func (s *Server) SubmitJob(ctx context.Context, req *Request) (*Result, string, error) {
	s.stats.received.Add(1)
	s.met.received.Inc()
	if !req.fidelityValid() {
		s.stats.failed.Add(1)
		s.met.outcomes["failed"].Inc()
		return nil, "", badRequestf("fidelity %q not one of exact|auto|fast", req.Fidelity)
	}
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.stats.rejected.Add(1)
		s.met.outcomes["rejected"].Inc()
		return nil, "", ErrDraining
	}
	s.jobWG.Add(1)
	s.drainMu.RUnlock()
	jctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req))
	defer cancel()
	if req.Fidelity == "fast" {
		// The fast tier skips the queue, the workers, and the model: the
		// analytic estimate answers inline in O(µs). No durable record —
		// the answer outlives the request by nothing.
		res, err := s.runner.Run(jctx, req, RunAnalytic)
		s.countInline(res, err)
		s.jobWG.Done()
		return res, "", err
	}
	j := &job{req: req, ctx: jctx, cancel: cancel, done: make(chan jobOutcome, 1)}
	if s.store != nil {
		// Persist the admission record before the job can reach a
		// worker: a crash between here and completion leaves a
		// recoverable record, never an invisible job.
		j.id = s.store.newID()
		j.rec = &JobRecord{ID: j.id, Request: req, Status: JobPending}
		if err := s.store.put(j.rec); err != nil {
			s.jobWG.Done()
			s.stats.failed.Add(1)
			s.met.outcomes["failed"].Inc()
			return nil, "", err
		}
		s.registerActive(j)
	}
	select {
	case s.queue <- j:
		s.stats.accepted.Add(1)
		s.met.accepted.Inc()
	default:
		if s.store != nil {
			s.unregisterActive(j)
			s.store.remove(j.id)
		}
		if s.cfg.Brownout && !req.exactOnly() {
			// Overload brownout: the queue is full, but an analytic
			// answer costs microseconds — convert the would-be 429 into
			// a reduced-fidelity 200. Shed only if the analytic tier
			// itself cannot answer (e.g. a saturated scenario).
			if res, err := s.runner.Run(jctx, req, RunAnalytic); err == nil {
				s.stats.brownouts.Add(1)
				s.met.brownouts.Inc()
				s.countInline(res, nil)
				s.jobWG.Done()
				return res, "", nil
			}
		}
		s.jobWG.Done()
		s.stats.shed.Add(1)
		s.met.outcomes["shed"].Inc()
		return nil, "", ErrShed
	}
	select {
	case out := <-j.done:
		return out.res, j.id, out.err
	case <-jctx.Done():
		// Still queued (or the submitter gave up first): the worker will
		// observe the dead context, finish the job cheaply, and do the
		// stats accounting; the buffered done channel means nobody blocks.
		return nil, j.id, guard.FromContext(jctx.Err())
	}
}

// timeoutFor clamps the request's deadline into the server's envelope.
func (s *Server) timeoutFor(req *Request) time.Duration {
	d := time.Duration(req.TimeoutMs) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// serveJob executes one admitted job: breaker consultation, retry loop,
// stat accounting — inside per-job panic isolation so no request can
// kill a worker.
func (s *Server) serveJob(worker int, j *job) {
	defer s.jobWG.Done()
	defer s.unregisterActive(j)
	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)
	defer func() {
		if we := guard.RecoveredWorker(worker, recover()); we != nil {
			s.stats.panics.Add(1)
			s.met.panics.Inc()
			s.stats.failed.Add(1)
			s.met.outcomes["failed"].Inc()
			s.recordOutcome(j, nil, we)
			j.finish(nil, we)
		}
	}()
	if err := j.ctx.Err(); err != nil {
		// Canceled while queued; the submitter is already gone.
		gerr := guard.FromContext(err)
		s.countCtxErr(gerr)
		s.recordOutcome(j, nil, gerr)
		j.finish(nil, gerr)
		return
	}
	if s.store != nil && j.rec != nil {
		// Durable job: hand the runner its checkpoint location and last
		// known progress through serve-internal request fields. The
		// request is copied so the caller's value stays untouched.
		req := *j.req
		req.CheckpointPath = s.store.checkpointPath(j.id)
		req.CheckpointEvery = s.cfg.CheckpointEvery
		req.LastProgress = j.rec.Progress
		j.req = &req
	}
	start := s.cfg.Now()
	br := s.breakerFor(j.req.modelKey())
	admission := br.Allow(start)

	var res *Result
	var err error
	if admission == AdmitDegraded {
		// Breaker open: walk the ladder instead of hammering the
		// suspect model — analytic first, exact FIFO serialization only
		// when the analytic tier itself cannot answer.
		s.stats.degraded.Add(1)
		s.met.degraded.Inc()
		res, err = s.degradedAnswer(j, br, start)
	} else {
		mode := s.brownoutMode(j, admission)
		answered := false
		if mode == RunAnalytic {
			// Deadline brownout: not enough time left for an engine
			// run. The analytic answer never judges the model, so the
			// breaker is untouched.
			if ares, aerr := s.runner.Run(j.ctx, j.req, RunAnalytic); aerr == nil {
				ares.Attempts = 1
				res, answered = ares, true
			} else {
				// Analytic tier errored; take our chances at full
				// fidelity — the outcome is what it would have been
				// without brownout.
				mode = RunExact
			}
		}
		if !answered {
			var attempts int
			res, attempts, err = s.runWithRetry(j, mode)
			if res != nil {
				res.Attempts = attempts
			}
			switch {
			case breakerWorthy(err):
				br.Record(admission == AdmitProbe, err, s.cfg.Now())
			case err == nil:
				br.Record(admission == AdmitProbe, nil, s.cfg.Now())
			case admission == AdmitProbe:
				// Context-terminated or bad-request probes judge nothing;
				// hand the probe slot back so the breaker can try again.
				br.ReleaseProbe()
			}
			// Context-terminated and bad requests charge nobody.
			elapsed := s.cfg.Now().Sub(start)
			s.observeRun(elapsed)
			if err == nil && mode == RunExact {
				s.estimator.observe(j.req.Topo, elapsed)
			}
		}
		if err == nil && mode != RunExact {
			s.stats.brownouts.Add(1)
			s.met.brownouts.Inc()
		}
	}
	switch {
	case err == nil:
		s.stats.completed.Add(1)
		s.met.outcomes["completed"].Inc()
		s.countFidelity(res)
	case errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadline):
		s.countCtxErr(err)
	default:
		s.stats.failed.Add(1)
		s.met.outcomes["failed"].Inc()
	}
	s.recordOutcome(j, res, err)
	j.finish(res, err)
}

// degradedAnswer serves a job whose model breaker is open. Fidelity
// "exact" clients asked never to be degraded, so they get the breaker
// error; everyone else gets the analytic estimate, falling to the
// exact FIFO-serialization rung only when the analytic tier errors
// (saturated scenario, malformed demand).
func (s *Server) degradedAnswer(j *job, br *Breaker, start time.Time) (*Result, error) {
	if j.req.exactOnly() {
		return nil, fmt.Errorf("%w: %w", ErrBreakerOpen, br.Err())
	}
	res, err := s.runner.Run(j.ctx, j.req, RunAnalytic)
	if err != nil {
		res, err = s.runner.Run(j.ctx, j.req, RunFIFO)
		// The FIFO rung is a real engine run; let it feed Retry-After.
		s.observeRun(s.cfg.Now().Sub(start))
	}
	if res != nil {
		res.Attempts = 1
		res.BreakerOpen = true
		res.DegradedReason = br.Err().Error()
	}
	return res, err
}

// quantCostFactor is the assumed run-time ratio of the quantized
// backend to the exact backend: with remaining deadline between
// quantCostFactor·estimate and estimate the quantized tier still fits
// where exact would not.
const quantCostFactor = 0.85

// brownoutMode picks the ladder rung for an admitted job. Exact unless
// brownout is enabled, the client allows degradation, the job carries a
// deadline, and the topology's run-time estimate says exact cannot
// finish in the time remaining. Probes always run exact: their whole
// point is to judge the model path.
func (s *Server) brownoutMode(j *job, admission Admission) RunMode {
	if !s.cfg.Brownout || admission == AdmitProbe || j.req.exactOnly() {
		return RunExact
	}
	deadline, ok := j.ctx.Deadline()
	if !ok {
		return RunExact
	}
	remaining := deadline.Sub(s.cfg.Now())
	est := s.estimator.estimate(j.req.Topo)
	if est <= 0 {
		est = time.Duration(s.avgRunNs.Load())
	}
	if est <= 0 || remaining >= est {
		return RunExact
	}
	if float64(remaining) >= quantCostFactor*float64(est) {
		return RunQuant
	}
	return RunAnalytic
}

// countInline accounts one inline-answered request (fast tier or
// admission brownout) with the same terminal bookkeeping as serveJob.
func (s *Server) countInline(res *Result, err error) {
	switch {
	case err == nil:
		s.stats.completed.Add(1)
		s.met.outcomes["completed"].Inc()
		s.countFidelity(res)
	case errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadline):
		s.countCtxErr(err)
	default:
		s.stats.failed.Add(1)
		s.met.outcomes["failed"].Inc()
	}
}

// countFidelity buckets one completed request by the ladder tier that
// answered it; the four tier counts sum to completed.
func (s *Server) countFidelity(res *Result) {
	tier := ""
	if res != nil {
		tier = res.Fidelity
	}
	switch tier {
	case "quant":
		s.stats.fidQuant.Add(1)
	case "analytic":
		s.stats.fidAnalytic.Add(1)
	case "fifo":
		s.stats.fidFIFO.Add(1)
	default:
		// Exact runs and any runner that predates the Fidelity field.
		tier = "exact"
		s.stats.fidExact.Add(1)
	}
	s.met.fidelity[tier].Inc()
}

// recordOutcome persists a durable job's terminal (or recoverable)
// state. The disposition decides the checkpoint's fate:
//
//   - success, deadline, non-drain cancel, plain failure → terminal
//     record; the checkpoint is deleted (nothing will resume it).
//   - injected crash (guard.ErrCrash) or cancellation during drain →
//     the record goes interrupted and the checkpoint stays: this is
//     simulated/real process death, and the next server resumes it.
//   - breaker-worthy failure → the record is parked with its checkpoint
//     kept for inspection; it is not retried automatically, because the
//     failure charged the model's breaker and retrying a parked job
//     would hammer a suspect model from the recovery path.
func (s *Server) recordOutcome(j *job, res *Result, err error) {
	if s.store == nil || j.rec == nil {
		return
	}
	rec := j.rec
	if res != nil && res.Iterations > rec.Progress {
		rec.Progress = res.Iterations
	}
	keepCheckpoint := false
	switch {
	case err == nil:
		rec.Status = JobCompleted
		rec.Result = res
		rec.Error = ""
	case errors.Is(err, guard.ErrCrash):
		rec.Status = JobInterrupted
		rec.Error = err.Error()
		keepCheckpoint = true
		s.met.interrupted.Inc()
	case errors.Is(err, guard.ErrCanceled) && s.draining.Load():
		rec.Status = JobInterrupted
		rec.Error = err.Error()
		keepCheckpoint = true
		s.met.interrupted.Inc()
	case errors.Is(err, guard.ErrCanceled):
		rec.Status = JobCanceled
		rec.Error = err.Error()
	case errors.Is(err, guard.ErrDeadline):
		rec.Status = JobDeadline
		rec.Error = err.Error()
	case breakerWorthy(err):
		rec.Status = JobParked
		rec.Error = err.Error()
		keepCheckpoint = true
		s.met.parked.Inc()
		// A parked dead letter still carries a reduced-fidelity answer:
		// the analytic estimate needs no model, so GET /jobs/{id} shows
		// a principled result instead of nothing. The job's terminal
		// accounting stays "failed" — this is advisory data on the
		// record, not a completed request.
		if ares, aerr := s.runner.Run(context.Background(), j.req, RunAnalytic); aerr == nil {
			ares.DegradedReason = err.Error()
			rec.Result = ares
		}
	default:
		rec.Status = JobFailed
		rec.Error = err.Error()
	}
	if !keepCheckpoint {
		s.store.removeCheckpoint(j.id)
	}
	// A failed record write loses durability, not correctness: the
	// in-memory outcome still reaches the submitter.
	//dqnlint:allow errdiscard record write failure loses durability only; the in-memory outcome still reaches the submitter
	_ = s.store.put(rec)
}

// runWithRetry executes the job's runner call at the given ladder
// rung, retrying transient failures with exponential backoff + jitter
// while the deadline lasts.
func (s *Server) runWithRetry(j *job, mode RunMode) (*Result, int, error) {
	attempts := 0
	for {
		res, err := s.runner.Run(j.ctx, j.req, mode)
		attempts++
		if err == nil || !transient(err) || attempts > s.cfg.RetryMax {
			return res, attempts, err
		}
		delay := s.backoff(attempts - 1)
		t := time.NewTimer(delay)
		select {
		case <-j.ctx.Done():
			t.Stop()
			// Out of time mid-backoff: the transient error is what the
			// caller should see, joined with the deadline state.
			return res, attempts, errors.Join(guard.FromContext(j.ctx.Err()), err)
		case <-t.C:
		}
		s.stats.retries.Add(1)
		s.met.retries.Inc()
	}
}

// backoff computes the delay before retry attempt n (0-based):
// RetryBase·2ⁿ capped at RetryCap, with "equal jitter" — half fixed,
// half uniform — so synchronized failures don't retry in lockstep.
func (s *Server) backoff(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30
	}
	d := s.cfg.RetryBase << uint(attempt)
	if d > s.cfg.RetryCap || d <= 0 {
		d = s.cfg.RetryCap
	}
	s.jitterMu.Lock()
	u := s.jitter.Float64()
	s.jitterMu.Unlock()
	return d/2 + time.Duration(u*float64(d/2))
}

// transient reports whether a failure is worth retrying: shard panics
// and divergence can stem from environmental faults (and, under chaos
// testing, provably do), while context errors, bad requests, and
// invalid models are deterministic.
func transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadline) {
		return false
	}
	var se *guard.ShardError
	var de *guard.DivergenceError
	var we *guard.WorkerError
	return errors.As(err, &se) || errors.As(err, &de) || errors.As(err, &we)
}

// breakerWorthy reports whether a failure should charge the model
// path's circuit breaker: inference faults and invalid models do;
// cancellations, deadlines, and bad requests do not.
func breakerWorthy(err error) bool {
	if err == nil {
		return false
	}
	return transient(err) || errors.Is(err, errModelInvalid)
}

// countCtxErr buckets a context-termination error.
func (s *Server) countCtxErr(err error) {
	if errors.Is(err, guard.ErrDeadline) {
		s.stats.deadline.Add(1)
		s.met.outcomes["deadline"].Inc()
	} else {
		s.stats.canceled.Add(1)
		s.met.outcomes["canceled"].Inc()
	}
}

// breakerFor returns (creating on first use) the breaker of one model
// path.
func (s *Server) breakerFor(path string) *Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[path]
	if !ok {
		b = NewBreaker(path, s.cfg.Breaker)
		b.onTransition = s.met.breakerMetrics(path, b)
		s.breakers[path] = b
	}
	return b
}

// Metrics returns the registry the server's series live in — the
// backing store of GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// observeRun feeds the job-duration EWMA (α = 1/8) behind Retry-After.
func (s *Server) observeRun(d time.Duration) {
	s.met.jobSeconds.Observe(d.Seconds())
	for {
		old := s.avgRunNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if s.avgRunNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter estimates how long a shed client should wait before
// retrying: the time for the current backlog to clear through the
// worker pool, clamped to [1s, 60s].
func (s *Server) RetryAfter() time.Duration {
	avg := time.Duration(s.avgRunNs.Load())
	if avg <= 0 {
		avg = time.Second
	}
	backlog := len(s.queue) + int(s.stats.inflight.Load())
	est := avg * time.Duration(backlog+1) / time.Duration(s.cfg.Workers)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est.Round(time.Second)
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: it stops admitting new jobs
// (readiness goes false, /simulate answers 503), waits for every
// already-admitted job — queued and in-flight — to finish, then stops
// the workers. If ctx expires first, remaining workers are stopped
// anyway and still-queued jobs are failed with ErrDraining; the error
// is then ctx's. Drain is idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	if s.store != nil {
		// Durable mode: interrupt every admitted job now. Each running
		// engine finishes its in-flight iteration, persists a final
		// snapshot, and returns guard.ErrCanceled; recordOutcome sees
		// draining and marks the record interrupted, so the next process
		// resumes exactly where this one stopped — all inside the drain
		// budget instead of waiting out long runs.
		s.activeMu.Lock()
		cancels := make([]context.CancelFunc, 0, len(s.active))
		for _, cancel := range s.active {
			cancels = append(cancels, cancel)
		}
		s.activeMu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
	}
	done := make(chan struct{})
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				s.stats.panics.Add(1) // keep the drain waiter from killing the process
			}
		}()
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.drainOnce.Do(func() { close(s.closed) })
	if err != nil {
		// Timed out: fail whatever is still queued so submitters unblock.
		for {
			select {
			case j := <-s.queue:
				if s.store != nil && j.rec != nil {
					// Never ran: the record stays recoverable for the
					// next process.
					j.rec.Status = JobInterrupted
					//dqnlint:allow errdiscard a failed write leaves the last durable status, which is still recoverable
					_ = s.store.put(j.rec)
					s.met.interrupted.Inc()
					s.unregisterActive(j)
				}
				j.finish(nil, ErrDraining)
				s.jobWG.Done()
			default:
				s.wg.Wait()
				return err
			}
		}
	}
	s.wg.Wait()
	return nil
}

// Stats is the observable server state (/stats payload).
type Stats struct {
	Received  uint64 `json:"received"`
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Retries   uint64 `json:"retries"`
	Canceled  uint64 `json:"canceled"`
	Deadline  uint64 `json:"deadline_exceeded"`
	Degraded  uint64 `json:"degraded"`
	Brownouts uint64 `json:"brownouts"`
	Panics    uint64 `json:"panics"`
	InFlight  int64  `json:"in_flight"`
	Queued    int    `json:"queued"`
	Workers   int    `json:"workers"`
	Queue     int    `json:"queue_depth"`
	Draining  bool   `json:"draining"`
	// Fidelity counts completed requests by degradation-ladder tier;
	// the four values sum to Completed. BrownoutEnabled mirrors
	// Config.Brownout so orchestrators can tell "will answer at reduced
	// fidelity" from "will shed".
	Fidelity        map[string]uint64 `json:"fidelity"`
	BrownoutEnabled bool              `json:"brownout_enabled"`
	AvgRunMs        float64           `json:"avg_run_ms"`
	Breakers        []BreakerStats    `json:"breakers,omitempty"`
}

// Snapshot collects the current stats.
func (s *Server) Snapshot() Stats {
	st := Stats{
		Received:  s.stats.received.Load(),
		Accepted:  s.stats.accepted.Load(),
		Completed: s.stats.completed.Load(),
		Failed:    s.stats.failed.Load(),
		Shed:      s.stats.shed.Load(),
		Rejected:  s.stats.rejected.Load(),
		Retries:   s.stats.retries.Load(),
		Canceled:  s.stats.canceled.Load(),
		Deadline:  s.stats.deadline.Load(),
		Degraded:  s.stats.degraded.Load(),
		Brownouts: s.stats.brownouts.Load(),
		Panics:    s.stats.panics.Load(),
		InFlight:  s.stats.inflight.Load(),
		Queued:    len(s.queue),
		Workers:   s.cfg.Workers,
		Queue:     s.cfg.QueueDepth,
		Draining:  s.draining.Load(),
		Fidelity: map[string]uint64{
			"exact":    s.stats.fidExact.Load(),
			"quant":    s.stats.fidQuant.Load(),
			"analytic": s.stats.fidAnalytic.Load(),
			"fifo":     s.stats.fidFIFO.Load(),
		},
		BrownoutEnabled: s.cfg.Brownout,
		AvgRunMs:        float64(s.avgRunNs.Load()) / float64(time.Millisecond),
	}
	s.breakerMu.Lock()
	paths := make([]string, 0, len(s.breakers))
	for p := range s.breakers {
		paths = append(paths, p)
	}
	s.breakerMu.Unlock()
	sortStrings(paths)
	for _, p := range paths {
		st.Breakers = append(st.Breakers, s.breakerFor(p).Stats())
	}
	return st
}

// sortStrings is an allocation-light insertion sort; breaker sets are
// tiny (one per model path).
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Durable reports whether the server persists job state (StateDir set).
func (s *Server) Durable() bool { return s.store != nil }

// Job loads a durable job's record by ID. It returns an error when the
// server is not durable, the ID is malformed, or no such record exists.
func (s *Server) Job(id string) (*JobRecord, error) {
	if s.store == nil {
		return nil, errors.New("serve: server has no state directory")
	}
	if !validJobID(id) {
		return nil, fmt.Errorf("%w: malformed job id", ErrBadRequest)
	}
	return s.store.get(id)
}

// OpenBreakers counts model paths whose breaker is currently open —
// the number of model identities being answered at reduced fidelity.
func (s *Server) OpenBreakers() int {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	n := 0
	for _, b := range s.breakers {
		if b.State() == BreakerOpen {
			n++
		}
	}
	return n
}

// BrownoutEnabled reports whether deadline/overload brownout is on.
func (s *Server) BrownoutEnabled() bool { return s.cfg.Brownout }

// BreakerFor exposes the breaker of a model path for tests and
// operational tooling (nil when that path has never been requested).
func (s *Server) BreakerFor(path string) *Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	return s.breakers[path]
}
