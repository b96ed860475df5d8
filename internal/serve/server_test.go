package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/wafernet/fred/internal/metrics"
)

// postStudy submits one study and returns status, body, and the cache
// disposition header.
func postStudy(t *testing.T, url string, req *StudyRequest) (int, []byte, string) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/studies", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Fredd-Cache")
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestServerStudyLifecycle pins the happy path plus the exact-cache
// contract: a cold allreduce study 200s with a schema-tagged result,
// and re-submitting the identical config returns the byte-identical
// body from cache without re-simulating.
func TestServerStudyLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := &StudyRequest{Kind: KindAllReduce, Bytes: 64 << 10, Seed: 42}

	status, body, disp := postStudy(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("cold submit: status %d, body %s", status, body)
	}
	if disp != "miss" {
		t.Fatalf("cold submit: X-Fredd-Cache = %q, want miss", disp)
	}
	var res StudyResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Schema != ResultSchema {
		t.Fatalf("schema %q, want %q", res.Schema, ResultSchema)
	}
	if res.ElapsedSimS <= 0 {
		t.Fatalf("elapsed sim time %g, want > 0", res.ElapsedSimS)
	}
	if res.ConfigHash == "" {
		t.Fatal("result carries no config hash")
	}

	misses := s.met.value(s.met.cacheMisses)
	status2, body2, disp2 := postStudy(t, ts.URL, req)
	if status2 != http.StatusOK || disp2 != "hit" {
		t.Fatalf("warm submit: status %d disposition %q, want 200/hit", status2, disp2)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit body differs from the original simulation")
	}
	if got := s.met.value(s.met.cacheMisses); got != misses {
		t.Fatalf("warm submit re-simulated: misses %g → %g", misses, got)
	}
}

// TestServerPhaseHistograms: one completed job records exactly one
// sample in each latency histogram /metrics serves — queue wait,
// simulation, encoding and the whole job.
func TestServerPhaseHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if status, body, _ := postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 64 << 10}); status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	art, err := metrics.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, d := range art.Series {
		counts[d.Name] = d.Count
	}
	for _, name := range []string{"serve/queue_wait_ms", "serve/simulate_ms", "serve/encode_ms", "serve/job_wall_ms"} {
		if got, ok := counts[name]; !ok || got != 1 {
			t.Errorf("%s: %g samples (present %v), want 1", name, got, ok)
		}
	}
}

// TestServerTrainingStudy pins the training kind end to end.
func TestServerTrainingStudy(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := &StudyRequest{Kind: KindTraining, Workload: "t17b", System: "Fred-D"}
	status, body, _ := postStudy(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var res StudyResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || res.Summary.TotalS <= 0 {
		t.Fatalf("training summary missing or empty: %+v", res.Summary)
	}
	if res.Workload != "Transformer-17B" {
		t.Fatalf("workload %q in result, want Transformer-17B", res.Workload)
	}
}

// TestServerRejectsInvalid pins 400 for malformed and invalid
// submissions — validation failures are terminal, never retried.
func TestServerRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"malformed json":  "{not json",
		"unknown kind":    `{"kind":"explode"}`,
		"unknown system":  `{"kind":"allreduce","system":"Fred-Z"}`,
		"hazard disabled": `{"kind":"poison"}`,
		"oversize bytes":  `{"kind":"allreduce","bytes":1e18}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServerFaultedAllReduceFails: a fault plan whose link failure
// lands while the all-reduce is in flight aborts the flows on that
// link, which fails the collective; the job answers 422 with the
// collective's error, naming the schedule and the phase it reached.
func TestServerFaultedAllReduceFails(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, body, _ := postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 64 << 20,
		Faults: &FaultSpec{Seed: 5, LinkFails: 2, HorizonS: 100e-6}})
	const want = `{"error":"collective: fred-innet-allreduce(20): phase 0: flow aborted by link failure","status":422}` + "\n"
	if status != http.StatusUnprocessableEntity || string(body) != want {
		t.Fatalf("status %d, body %q; want 422, %q", status, body, want)
	}
}

// TestServerPanicIsolation pins the blast-radius contract: a poison
// job fails with 500 and a captured panic message, the worker
// survives, the next study on the same server succeeds, and the
// failure is never cached — resubmission re-runs (and re-fails).
func TestServerPanicIsolation(t *testing.T) {
	var log bytes.Buffer
	s, ts := newTestServer(t, Config{Workers: 1, Hazards: true, ErrLog: &log})

	poison := &StudyRequest{Kind: KindPoison, Seed: 7}
	status, body, _ := postStudy(t, ts.URL, poison)
	if status != http.StatusInternalServerError {
		t.Fatalf("poison: status %d, body %s", status, body)
	}
	if !bytes.Contains(body, []byte("panicked")) {
		t.Fatalf("poison body %s does not report the panic", body)
	}
	if !bytes.Contains(log.Bytes(), []byte("runStudy")) && !bytes.Contains(log.Bytes(), []byte("goroutine")) {
		t.Fatalf("operator log has no stack:\n%s", log.String())
	}

	// The same worker must still simulate cleanly.
	status, body, _ = postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 32 << 10})
	if status != http.StatusOK {
		t.Fatalf("post-panic study: status %d, body %s", status, body)
	}

	// Failures are not cached: the poison re-runs and re-panics.
	before := s.met.value(s.met.panics)
	status, _, _ = postStudy(t, ts.URL, poison)
	if status != http.StatusInternalServerError {
		t.Fatalf("poison resubmit: status %d, want 500", status)
	}
	if got := s.met.value(s.met.panics); got != before+1 {
		t.Fatalf("poison resubmit did not re-run: panics %g → %g", before, got)
	}
}

// TestServerDeadlineKillsSpin pins cooperative cancellation through
// the whole stack: a runaway simulation that would never terminate is
// killed by its deadline and answered 504, and the worker is free
// afterwards.
func TestServerDeadlineKillsSpin(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Hazards: true})
	start := time.Now()
	status, body, _ := postStudy(t, ts.URL, &StudyRequest{Kind: KindSpin, DeadlineMS: 200})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("spin: status %d, body %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("spin kill took %v — cancellation is not cooperative enough", elapsed)
	}
	if got := s.met.value(s.met.deadlines); got != 1 {
		t.Fatalf("deadline_exceeded = %g, want 1", got)
	}
	// Worker must be free for real work.
	if status, body, _ = postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 32 << 10}); status != http.StatusOK {
		t.Fatalf("post-spin study: status %d, body %s", status, body)
	}
}

// TestServerIdempotencyKeys pins both sides of the idempotency
// contract: the same key with the same config replays the same body,
// and the same key with a different config is a 409 conflict.
func TestServerIdempotencyKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := &StudyRequest{IdempotencyKey: "ci-run-1", Kind: KindAllReduce, Bytes: 64 << 10, Seed: 5}
	status, body, _ := postStudy(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first submit: status %d, body %s", status, body)
	}
	status2, body2, _ := postStudy(t, ts.URL, req)
	if status2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("replay: status %d, identical=%v — idempotent replay must return the same body", status2, bytes.Equal(body, body2))
	}
	conflict := &StudyRequest{IdempotencyKey: "ci-run-1", Kind: KindAllReduce, Bytes: 128 << 10, Seed: 5}
	if status, body, _ = postStudy(t, ts.URL, conflict); status != http.StatusConflict {
		t.Fatalf("conflicting config under the same key: status %d, body %s, want 409", status, body)
	}
}

// TestServerSingleFlightDedup pins that N concurrent identical cold
// submissions simulate once: one admission, everyone else joins the
// in-flight job and all bodies are byte-identical.
func TestServerSingleFlightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	const n = 16
	req := &StudyRequest{Kind: KindAllReduce, Bytes: 256 << 10, Seed: 99}
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := postStudy(t, ts.URL, req)
			if status == http.StatusOK {
				bodies[i] = body
			}
		}(i)
	}
	wg.Wait()
	var ref []byte
	okCount := 0
	for _, b := range bodies {
		if b == nil {
			continue
		}
		okCount++
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatal("two waiters on the same config got different bodies")
		}
	}
	if okCount != n {
		t.Fatalf("%d/%d submissions succeeded", okCount, n)
	}
	if admitted := s.met.value(s.met.admitted); admitted != 1 {
		t.Fatalf("admitted = %g jobs for %d identical submissions, want 1 (single-flight)", admitted, n)
	}
	// Every non-simulating submission was served by the in-flight join
	// or — if it arrived after completion — the exact cache.
	joined, hits := s.met.value(s.met.dedupJoined), s.met.value(s.met.cacheHits)
	if joined+hits != n-1 {
		t.Fatalf("dedup_joined %g + cache_hits %g = %g, want %d", joined, hits, joined+hits, n-1)
	}
}

// TestServerDedupJoinsInFlight forces the in-flight join path with a
// job guaranteed to still be running when the duplicate arrives: two
// identical spin submissions share one execution (admitted once,
// joined once) and both see its 504.
func TestServerDedupJoinsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Hazards: true})
	req := &StudyRequest{Kind: KindSpin, Seed: 77, DeadlineMS: 800}
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[0], _, _ = postStudy(t, ts.URL, req)
	}()
	waitFor(t, time.Second, func() bool { return s.met.value(s.met.running) == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[1], _, _ = postStudy(t, ts.URL, req)
	}()
	wg.Wait()
	if statuses[0] != http.StatusGatewayTimeout || statuses[1] != http.StatusGatewayTimeout {
		t.Fatalf("statuses %v, want both 504", statuses)
	}
	if admitted := s.met.value(s.met.admitted); admitted != 1 {
		t.Fatalf("admitted = %g, want 1", admitted)
	}
	if joined := s.met.value(s.met.dedupJoined); joined != 1 {
		t.Fatalf("dedup_joined = %g, want 1", joined)
	}
}

// TestServerShedsWhenFull pins the load-shedding contract: with one
// worker pinned and the one queue slot taken, the next submission is
// answered immediately with 429 and a Retry-After — not queued, not
// timed out.
func TestServerShedsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Hazards: true})

	// Pin the worker with a spin job, then occupy the queue slot.
	var wg sync.WaitGroup
	launch := func(seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postStudy(t, ts.URL, &StudyRequest{Kind: KindSpin, Seed: seed, DeadlineMS: 3000})
		}()
	}
	launch(1)
	waitFor(t, time.Second, func() bool { return s.met.value(s.met.running) == 1 })
	launch(2)
	waitFor(t, time.Second, func() bool { return s.met.value(s.met.admitted) == 2 })

	start := time.Now()
	payload, _ := json.Marshal(&StudyRequest{Kind: KindSpin, Seed: 3, DeadlineMS: 3000})
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// Shedding must be immediate — the point is answering before any
	// deadline or client timeout would fire.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed response took %v, want immediate", elapsed)
	}
	if shed := s.met.value(s.met.shed); shed != 1 {
		t.Fatalf("serve/shed = %g, want 1", shed)
	}
	wg.Wait()
}

// TestServerDrain pins graceful shutdown: draining finishes queued
// work, new submissions get 503, readiness flips, and the worker pool
// exits without leaking goroutines.
func TestServerDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A few real jobs in flight when the drain starts.
	var wg sync.WaitGroup
	statuses := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _ := postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 64 << 10, Seed: int64(200 + i)})
			statuses[i] = status
		}(i)
	}
	// Every job must be past admission before the drain begins —
	// submissions racing the drain flag would (correctly) see 503,
	// which is not what this test pins.
	waitFor(t, 2*time.Second, func() bool {
		done := s.met.value(s.met.completed) + s.met.value(s.met.failed)
		return s.met.value(s.met.admitted) >= 4 || done >= 4
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("in-flight job %d finished %d during drain, want 200", i, status)
		}
	}

	// After the drain: no new work, readiness 503, liveness still 200.
	status, body, _ := postStudy(t, ts.URL, &StudyRequest{Kind: KindAllReduce, Bytes: 64 << 10, Seed: 999})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, body %s, want 503", status, body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200", resp.StatusCode)
	}

	ts.Close()
	checkNoGoroutineLeak(t, before)
}

// TestServerForcedDrain pins the escalation path: when the drain
// budget expires with a runaway job still spinning, Drain cancels the
// base context, the job dies via cooperative cancellation, and the
// pool still exits.
func TestServerForcedDrain(t *testing.T) {
	s := NewServer(Config{Workers: 1, Hazards: true, MaxDeadline: 10 * time.Minute, DefaultDeadline: 10 * time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A spin job with a deadline far beyond the drain budget.
		postStudy(t, ts.URL, &StudyRequest{Kind: KindSpin, DeadlineMS: 600000})
	}()
	waitFor(t, 2*time.Second, func() bool { return s.met.value(s.met.running) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("forced drain reported clean")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	wg.Wait()
}

// TestServerEndpoints pins the observability surface: healthz,
// readyz, metrics (a valid fred-metrics/v1 artifact), and the obs
// progress endpoints are all mounted.
func TestServerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for path, want := range map[string]int{
		"/healthz":  http.StatusOK,
		"/readyz":   http.StatusOK,
		"/metrics":  http.StatusOK,
		"/progress": http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d (body %s)", path, resp.StatusCode, want, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Schema string `json:"schema"`
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&artifact); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if artifact.Schema != "fred-metrics/v1" {
		t.Fatalf("metrics schema %q, want fred-metrics/v1", artifact.Schema)
	}
	names := make(map[string]bool, len(artifact.Series))
	for _, s := range artifact.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"serve/submitted", "serve/shed", "serve/cache_hits", "serve/queue_depth", "serve/job_wall_ms"} {
		if !names[want] {
			t.Fatalf("metrics artifact missing %s (have %d series)", want, len(names))
		}
	}
}

// waitFor polls cond until it holds or the budget expires.
func waitFor(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// checkNoGoroutineLeak asserts the goroutine count settles back to
// (near) the baseline. Manual polling instead of a leak-check
// dependency: http clients and test servers wind down asynchronously,
// so allow a short settling window and a small slack for runtime
// housekeeping goroutines.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= baseline+slack {
			return
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, string(buf[:n]))
}
