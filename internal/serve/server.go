// Package serve is fredd's core: a hardened simulation-as-a-service
// layer wrapping experiments.Session in a long-running HTTP/JSON
// daemon. Robustness is the design axis, end to end:
//
//   - a bounded admission queue with explicit load shedding — when the
//     queue is full the server answers 429 with Retry-After instead of
//     queueing without bound or blocking the accept loop;
//   - per-job wall-clock deadlines threaded as context.Context into
//     every scheduler the job builds (sim.Scheduler.BindContext), so a
//     runaway or hung cell aborts cleanly with 504 instead of pinning
//     a worker forever;
//   - per-job panic isolation: a panicking study fails that job with
//     500 (stack captured), never the process;
//   - an exact result cache keyed by the PR 6 manifest config-hash —
//     the simulator is bit-identically deterministic (CI-gated), so
//     equal hashes mean equal artifacts and a cache hit is the same
//     bytes re-simulation would produce;
//   - idempotency keys plus single-flight dedup: identical in-flight
//     studies are simulated once, and every waiter gets the one body;
//   - graceful drain: stop admitting (503), finish the queued and
//     running jobs, then force-cancel stragglers via the same
//     cooperative cancellation.
//
// The counterpart load-driver (Swarm, wired as fredd -swarm) hammers a
// server with thousands of concurrent mixed requests — hot cache hits,
// cold studies, poison jobs that panic, jobs that bust their deadline —
// and reports whether the server shed load instead of collapsing.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/sim"
)

// Config sizes the server's robustness envelope. The zero value gets
// sensible defaults from NewServer.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a submission arriving
	// with the queue full is shed with 429 (default 64).
	QueueDepth int
	// DefaultDeadline applies to jobs that do not set deadline_ms;
	// MaxDeadline clamps the ones that do (defaults 10s / 60s). The
	// deadline covers queue wait plus execution.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheEntries bounds the result cache (FIFO eviction, default
	// 4096 entries). The idempotency-key index shares the bound.
	CacheEntries int
	// Hazards admits the chaos study kinds ("poison", "spin") used by
	// the swarm driver to prove isolation. Off in production.
	Hazards bool
	// ErrLog, when non-nil, receives one line per isolated failure
	// (panics with stacks, deadline kills) for the operator.
	ErrLog io.Writer
}

// jobState is one submission's lifecycle record: the single-flight
// rendezvous every duplicate submission waits on.
type jobState struct {
	id       uint64
	req      *StudyRequest
	key      string
	accepted time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	// Set exactly once, before done closes.
	body   []byte // non-nil on success
	status int    // error status when body is nil
	errMsg string
}

// Server is the daemon core. It implements http.Handler; lifecycle is
// NewServer → serve traffic → Drain (idempotent) → Close.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	engine *obs.Engine

	baseCtx context.Context
	stop    context.CancelFunc

	queue chan *jobState

	mu        sync.Mutex
	draining  bool
	inflight  map[string]*jobState // config hash → queued/running job
	cache     map[string][]byte    // config hash → result body
	cacheFIFO []string
	idem      map[string]string // idempotency key → config hash
	idemFIFO  []string

	met     *serveMetrics
	wg      sync.WaitGroup
	seq     atomic.Uint64
	running atomic.Int64
	start   time.Time
}

// serveMetrics is the serve/* metrics plane. The registry itself is
// single-writer by design, so every touch goes through this mutex —
// contention is negligible next to a simulation.
type serveMetrics struct {
	mu  sync.Mutex
	reg *metrics.Registry

	submitted, admitted, shed, rejected  *metrics.Series
	cacheHits, cacheMisses, dedupJoined  *metrics.Series
	completed, failed, panics, deadlines *metrics.Series
	queueDepth, running                  *metrics.Series
	jobWallMS, queueWaitMS               *metrics.Series
	simulateMS, encodeMS                 *metrics.Series
}

func newServeMetrics() *serveMetrics {
	m := &serveMetrics{reg: metrics.NewRegistry()}
	m.submitted = m.reg.Counter("serve/submitted", "requests")
	m.admitted = m.reg.Counter("serve/admitted", "jobs")
	m.shed = m.reg.Counter("serve/shed", "requests")
	m.rejected = m.reg.Counter("serve/rejected", "requests")
	m.cacheHits = m.reg.Counter("serve/cache_hits", "requests")
	m.cacheMisses = m.reg.Counter("serve/cache_misses", "requests")
	m.dedupJoined = m.reg.Counter("serve/dedup_joined", "requests")
	m.completed = m.reg.Counter("serve/completed", "jobs")
	m.failed = m.reg.Counter("serve/failed", "jobs")
	m.panics = m.reg.Counter("serve/panics", "jobs")
	m.deadlines = m.reg.Counter("serve/deadline_exceeded", "jobs")
	m.queueDepth = m.reg.Gauge("serve/queue_depth", "jobs")
	m.running = m.reg.Gauge("serve/jobs_running", "jobs")
	bounds := metrics.LogBuckets(0.01, 60000, 3)
	m.jobWallMS = m.reg.Histogram("serve/job_wall_ms", "ms", bounds)
	m.queueWaitMS = m.reg.Histogram("serve/queue_wait_ms", "ms", bounds)
	m.simulateMS = m.reg.Histogram("serve/simulate_ms", "ms", bounds)
	m.encodeMS = m.reg.Histogram("serve/encode_ms", "ms", bounds)
	return m
}

func (m *serveMetrics) inc(s *metrics.Series) {
	m.mu.Lock()
	s.Add(1)
	m.mu.Unlock()
}

func (m *serveMetrics) set(s *metrics.Series, v float64) {
	m.mu.Lock()
	s.Set(v)
	m.mu.Unlock()
}

func (m *serveMetrics) observe(s *metrics.Series, v float64) {
	m.mu.Lock()
	s.Observe(v, 1)
	m.mu.Unlock()
}

func (m *serveMetrics) value(s *metrics.Series) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.Value()
}

func (m *serveMetrics) export(man metrics.Manifest) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Export(man).Encode()
}

// NewServer builds the daemon and starts its worker pool.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	if cfg.MaxDeadline < cfg.DefaultDeadline {
		cfg.MaxDeadline = cfg.DefaultDeadline
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		engine:   obs.NewEngine(nil),
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *jobState, cfg.QueueDepth),
		inflight: make(map[string]*jobState),
		cache:    make(map[string][]byte),
		idem:     make(map[string]string),
		met:      newServeMetrics(),
		start:    time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/studies", s.handleSubmit)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	oh := obs.Handler(s.engine)
	s.mux.Handle("/progress", oh)
	s.mux.Handle("/progress/stream", oh)
	s.mux.Handle("/debug/", oh)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches to the daemon's mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the progress engine (per-job streamed progress at
// /progress and /progress/stream).
func (s *Server) Engine() *obs.Engine { return s.engine }

// errorBody writes a JSON error response.
func errorBody(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}{msg, status})
	w.Write(append(data, '\n'))
}

// logf writes one operator line when an ErrLog is configured.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.ErrLog != nil {
		fmt.Fprintf(s.cfg.ErrLog, "fredd: "+format+"\n", args...)
	}
}

// retryAfter estimates when capacity frees up: the queue's depth over
// the worker pool, floored at one second — coarse on purpose; the
// point is to push retries out of the overload window.
func (s *Server) retryAfter() int {
	secs := len(s.queue) / s.cfg.Workers
	if secs < 1 {
		secs = 1
	}
	return secs
}

// deadlineFor clamps a request's deadline into the server's envelope.
func (s *Server) deadlineFor(req *StudyRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// handleSubmit is POST /v1/studies: the admission path. In order —
// validate, idempotency check, exact-cache lookup, single-flight
// join, drain refusal, bounded enqueue with shedding — then wait for
// the job's one result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.met.inc(s.met.submitted)
	if r.Method != http.MethodPost {
		errorBody(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req StudyRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.met.inc(s.met.rejected)
		errorBody(w, http.StatusBadRequest, "decoding study request: "+err.Error())
		return
	}
	if err := req.Normalize(s.cfg.Hazards); err != nil {
		s.met.inc(s.met.rejected)
		errorBody(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.Key()

	s.mu.Lock()
	if req.IdempotencyKey != "" {
		if prev, ok := s.idem[req.IdempotencyKey]; ok && prev != key {
			s.mu.Unlock()
			s.met.inc(s.met.rejected)
			errorBody(w, http.StatusConflict,
				fmt.Sprintf("idempotency key %q already bound to config %s", req.IdempotencyKey, prev))
			return
		} else if !ok {
			s.idemPutLocked(req.IdempotencyKey, key)
		}
	}
	if cached, ok := s.cache[key]; ok {
		s.mu.Unlock()
		s.met.inc(s.met.cacheHits)
		s.writeResult(w, cached, "hit")
		return
	}
	if j, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.met.inc(s.met.dedupJoined)
		s.awaitJob(w, r, j)
		return
	}
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		errorBody(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	j := &jobState{
		id:       s.seq.Add(1),
		req:      &req,
		key:      key,
		accepted: time.Now(),
		done:     make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithTimeout(s.baseCtx, s.deadlineFor(&req))
	select {
	case s.queue <- j:
		s.inflight[key] = j
		depth := len(s.queue)
		s.mu.Unlock()
		s.met.inc(s.met.admitted)
		s.met.inc(s.met.cacheMisses)
		s.met.set(s.met.queueDepth, float64(depth))
	default:
		// Bounded queue full: shed explicitly. 429 + Retry-After is
		// the contract — never an unbounded queue, never a timeout.
		ra := s.retryAfter()
		s.mu.Unlock()
		j.cancel()
		s.met.inc(s.met.shed)
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		errorBody(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	s.awaitJob(w, r, j)
}

// awaitJob blocks the handler on the job's single-flight rendezvous
// and writes its one outcome. A client that disconnects stops
// waiting; the job itself keeps running for the cache and any other
// waiters.
func (s *Server) awaitJob(w http.ResponseWriter, r *http.Request, j *jobState) {
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	if j.body != nil {
		s.writeResult(w, j.body, "miss")
		return
	}
	errorBody(w, j.status, j.errMsg)
}

// writeResult writes a completed study body with its cache
// disposition in a header — the body itself stays byte-identical
// between a cold run and a cache hit.
func (s *Server) writeResult(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fredd-Cache", disposition)
	w.Write(body)
}

// idemPutLocked records an idempotency binding under the FIFO bound.
func (s *Server) idemPutLocked(key, hash string) {
	if len(s.idemFIFO) >= s.cfg.CacheEntries {
		delete(s.idem, s.idemFIFO[0])
		s.idemFIFO = s.idemFIFO[1:]
	}
	s.idem[key] = hash
	s.idemFIFO = append(s.idemFIFO, key)
}

// cachePutLocked stores a result body under the FIFO bound.
func (s *Server) cachePutLocked(key string, body []byte) {
	if _, ok := s.cache[key]; ok {
		return
	}
	if len(s.cacheFIFO) >= s.cfg.CacheEntries {
		delete(s.cache, s.cacheFIFO[0])
		s.cacheFIFO = s.cacheFIFO[1:]
	}
	s.cache[key] = body
	s.cacheFIFO = append(s.cacheFIFO, key)
}

// worker drains the admission queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one admitted job: deadline check for time lost in
// the queue, progress registration, isolated execution, completion.
func (s *Server) runJob(j *jobState) {
	s.met.set(s.met.queueDepth, float64(len(s.queue)))
	s.met.observe(s.met.queueWaitMS, msSince(j.accepted))
	if j.ctx.Err() != nil {
		// The deadline covers queue wait: a job that expired while
		// queued is not worth starting.
		s.finish(j, nil, http.StatusGatewayTimeout, "deadline exceeded while queued", true, false)
		return
	}
	s.met.set(s.met.running, float64(s.running.Add(1)))
	s.engine.StudyStarted("job/"+j.req.Kind, 1)
	tok := s.engine.CellStarted("job/"+j.req.Kind, int(j.id))
	body, status, msg, timedOut, panicked := s.execute(j, tok)
	s.engine.CellFinished(tok, body == nil)
	s.met.set(s.met.running, float64(s.running.Add(-1)))
	s.finish(j, body, status, msg, timedOut, panicked)
}

// execute runs the study with per-job panic isolation: a panic
// anywhere inside the simulation fails this job with a captured
// stack, and the worker, the queue and every other job are untouched.
// It times the job's two phases — serve/simulate_ms for every study
// that returns, serve/encode_ms for every result it encodes — so the
// /metrics histograms split job_wall_ms into queue wait, simulation
// and encoding.
func (s *Server) execute(j *jobState, tok *obs.Cell) (body []byte, status int, msg string, timedOut, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			body, status = nil, http.StatusInternalServerError
			msg = fmt.Sprintf("study panicked: %v", r)
			timedOut, panicked = false, true
			s.logf("job %d (%s %s) panicked: %v\n%s", j.id, j.req.Kind, j.key, r, stack)
		}
	}()
	start := time.Now()
	res, err := runStudy(j.ctx, j.req, tok)
	s.met.observe(s.met.simulateMS, msSince(start))
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, http.StatusGatewayTimeout, "deadline exceeded: " + err.Error(), true, false
		}
		return nil, http.StatusUnprocessableEntity, err.Error(), false, false
	}
	start = time.Now()
	data, err := res.Encode()
	s.met.observe(s.met.encodeMS, msSince(start))
	if err != nil {
		return nil, http.StatusInternalServerError, "encoding result: " + err.Error(), false, false
	}
	return data, http.StatusOK, "", false, false
}

// finish publishes the job's one outcome: cache on success, metrics,
// the single-flight rendezvous. Failures are never cached — a poison
// or timed-out config re-runs on resubmission.
func (s *Server) finish(j *jobState, body []byte, status int, msg string, timedOut, panicked bool) {
	j.cancel()
	s.mu.Lock()
	delete(s.inflight, j.key)
	if body != nil {
		s.cachePutLocked(j.key, body)
	}
	s.mu.Unlock()
	j.body, j.status, j.errMsg = body, status, msg
	s.met.observe(s.met.jobWallMS, msSince(j.accepted))
	switch {
	case body != nil:
		s.met.inc(s.met.completed)
	case panicked:
		s.met.inc(s.met.failed)
		s.met.inc(s.met.panics)
	case timedOut:
		s.met.inc(s.met.failed)
		s.met.inc(s.met.deadlines)
		s.logf("job %d (%s %s) killed: %s", j.id, j.req.Kind, j.key, msg)
	default:
		s.met.inc(s.met.failed)
	}
	close(j.done)
}

// msSince is the wall time since t in milliseconds, the unit of the
// serve/*_ms histograms.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 200 while admitting, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	depth := len(s.queue)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	w.WriteHeader(status)
	data, _ := json.Marshal(struct {
		Ready      bool `json:"ready"`
		Draining   bool `json:"draining"`
		QueueDepth int  `json:"queue_depth"`
		Workers    int  `json:"workers"`
	}{!draining, draining, depth, s.cfg.Workers})
	w.Write(append(data, '\n'))
}

// handleMetrics serves the serve/* plane as a fred-metrics/v1
// artifact — the same schema every other tool in the repo emits, so
// fredreport can diff two scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.set(s.met.queueDepth, float64(len(s.queue)))
	data, err := s.met.export(metrics.Manifest{Tool: "fredd", Command: "serve"})
	if err != nil {
		errorBody(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// Drain gracefully shuts the job plane down: stop admitting (new
// submissions answer 503, readiness goes unready), let the workers
// finish every queued and running job, and — if ctx expires first —
// force the stragglers to abort via their bound contexts and wait for
// the pool to exit. Idempotent. Returns nil on a clean drain, the
// context's error if jobs had to be force-canceled.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force: cancel the base context — every job context derives
		// from it, so running simulations stop at their next
		// cancellation poll and the workers drain out.
		s.stop()
		<-done
		return ctx.Err()
	}
}

// Close force-drains with a short grace period and releases the base
// context. For tests and defer paths; production shutdown calls Drain
// with its own budget first.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	s.stop()
}

// CacheLoad warm-starts the result cache with the given bodies, keys in
// insertion order. Entries beyond the configured bound are dropped
// oldest first. Bodies are trusted verbatim: the cache key embeds the
// engine revision, so a body from an older engine simply never hits.
func (s *Server) CacheLoad(keys []string, bodies map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		if body, ok := bodies[k]; ok {
			s.cachePutLocked(k, body)
		}
	}
}
