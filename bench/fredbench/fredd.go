package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/serve"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// freddRate is the open-loop arrival rate: about 40% of what two
// connections sustain in a closed loop on a 2-core host, below the knee
// where runs stop agreeing.
const freddRate = 600.0

// The request classes of the fredd-mixed traffic.
const (
	classHot           = iota // 40%: allreduce over 20 pre-warmed keys, served from cache
	classColdAllReduce        // 50%: allreduce with a unique seed, compiled and simulated
	classColdTraining         // 10%: training iteration with a unique seed
)

var classNames = []string{"hot", "cold_allreduce", "cold_training"}

// freddCacheEntries bounds the server's result cache. It is an eighth
// of the server's default: still far more than the 20 hot keys, so
// the FIFO keeps evicting and re-inserting them, but small enough that
// a garbage-collection cycle is cheap and several fall in every window.
// With the default 4096 entries the heap holds about 150 MB of
// answers, two or three costly cycles land in the closed loop, and
// whether it is two or three moved the capacity by up to 25% from run
// to run.
const freddCacheEntries = 512

// freddSizes are the allreduce payloads; hot keys are every system ×
// size with seed 0.
var freddSizes = []float64{256 << 10, 1 << 20, 4 << 20, 16 << 20}

// freddModels are the training workloads by their fredd names.
var freddModels = []struct {
	name  string
	model func() *workload.Model
}{
	{"resnet152", workload.ResNet152},
	{"t17b", workload.Transformer17B},
	{"gpt3", workload.GPT3},
	{"t1t", workload.Transformer1T},
}

// fredd is an in-process fredd server on loopback with a client
// limited to nproc connections, plus the references its answers are
// checked against.
type fredd struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string // http://host:port of the server
	client *http.Client

	hotBody  [][]byte // the pre-warm answer of each hot key
	elapsed  map[string][]byte
	nextReq  atomic.Int64
	inflight atomic.Int64
	systems  []experiments.System
	hotCount int
}

func setupFredd(cfg *config) (runner, error) { return newFredd(cfg.seed) }

func newFredd(seed int64) (*fredd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fredd{
		seed:    seed,
		srv:     serve.NewServer(serve.Config{Workers: nproc, CacheEntries: freddCacheEntries}),
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		elapsed: map[string][]byte{},
		systems: experiments.Systems(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     nproc,
				MaxIdleConnsPerHost: nproc,
				DisableCompression:  true,
			},
		},
	}
	f.hs = &http.Server{Handler: f.srv}
	go func() { f.served <- f.hs.Serve(ln) }()
	f.hotCount = len(f.systems) * len(freddSizes)
	if err := f.references(); err != nil {
		f.close()
		return nil, err
	}
	// Fill the cache to its bound, as on a server that has run for a
	// while: copies of a real answer under keys no request uses. Every
	// cold insert then evicts one entry, and the heap starts at the size
	// it keeps, so the window does not time the cache's growth.
	filler := freddReq{class: classColdAllReduce, study: serve.StudyRequest{Kind: serve.KindAllReduce, System: string(experiments.FredD), Seed: -1}}
	body, err := f.post(&filler)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("fetching a cache filler: %w", err)
	}
	keys := make([]string, freddCacheEntries-1-f.hotCount)
	bodies := make(map[string][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("filler-%d", i)
		bodies[keys[i]] = append([]byte(nil), body...)
	}
	f.srv.CacheLoad(keys, bodies)
	// Pre-warm the hot keys last, so they are the newest entries; their
	// first answers are the bytes every later hot answer must repeat.
	for k := 0; k < f.hotCount; k++ {
		req := f.hotRequest(k)
		body, err := f.post(&req)
		if err == nil {
			err = f.check(&req, body)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("pre-warming hot key %d: %w", k, err)
		}
		f.hotBody = append(f.hotBody, body)
	}
	return f, nil
}

// references simulates every allreduce and training configuration the
// mix can request directly in process, recording the elapsed_sim_s
// fragment each answer must carry.
func (f *fredd) references() error {
	for _, sys := range f.systems {
		for _, size := range freddSizes {
			w := experiments.NewSession().Build(sys)
			el, err := collective.RunToCompletionErr(w.Network(), collective.NewComm(w).AllReduce(allNPUs(w), size))
			if err != nil {
				return fmt.Errorf("reference allreduce %s %g: %w", sys, size, err)
			}
			f.elapsed[refKey(serve.KindAllReduce, string(sys), fmt.Sprint(size))] = elapsedFragment(el)
		}
		for _, m := range freddModels {
			model := m.model()
			strat := parallelism.Strategy{MP: model.DefaultMP, DP: model.DefaultDP, PP: model.DefaultPP}
			r, err := experiments.NewSession().RunTraining(sys, model, strat, 16)
			if err != nil {
				return fmt.Errorf("reference training %s %s: %w", m.name, sys, err)
			}
			f.elapsed[refKey(serve.KindTraining, string(sys), m.name)] = elapsedFragment(r.Total)
		}
	}
	return nil
}

// allNPUs is the wafer-wide group fredd's allreduce studies use.
func allNPUs(w topology.Wafer) []int {
	group := make([]int, w.NPUCount())
	for i := range group {
		group[i] = i
	}
	return group
}

func refKey(kind, sys, what string) string { return kind + "|" + sys + "|" + what }

func elapsedFragment(v float64) []byte {
	num, _ := json.Marshal(v) // a finite float always encodes
	return append([]byte(`"elapsed_sim_s": `), num...)
}

// freddReq is one request of the mix.
type freddReq struct {
	class int
	hot   int // the hot key, for classHot
	study serve.StudyRequest
}

func (f *fredd) hotRequest(k int) freddReq {
	return freddReq{class: classHot, hot: k, study: serve.StudyRequest{
		Kind:   serve.KindAllReduce,
		System: string(f.systems[k/len(freddSizes)]),
		Bytes:  freddSizes[k%len(freddSizes)],
	}}
}

// blockClasses is the class mix of every block of ten requests. Hot and
// cold answers form two latency modes; with half the requests hot the
// median sat in the gap between them and moved 13% from run to run, so
// cold allreduce takes the larger share and the median falls inside
// its mode.
var blockClasses = [10]int{classHot, classHot, classHot, classHot, classColdAllReduce,
	classColdAllReduce, classColdAllReduce, classColdAllReduce, classColdAllReduce, classColdTraining}

// request returns the i-th request of the seeded mix. Every block of
// ten requests holds the mix exactly, in an order the seed shuffles,
// and the training requests walk the 20 model × system pairs in seeded
// order; so the share of slow training jobs in a window — which sets
// the tail and the capacity — does not hinge on the seed. Cold requests
// carry a seed no other request uses, so the cache never holds them.
func (f *fredd) request(i int64) freddReq {
	base := splitmix(uint64(f.seed))
	block := uint64(i / 10)
	class := blockClasses[shuffled(len(blockClasses), splitmix(base^1)+block)[i%10]]
	pick := splitmix(base + uint64(i))
	switch class {
	case classHot:
		return f.hotRequest(int(pick % uint64(f.hotCount)))
	case classColdAllReduce:
		return freddReq{class: classColdAllReduce, study: serve.StudyRequest{
			Kind:   serve.KindAllReduce,
			System: string(f.systems[pick%uint64(len(f.systems))]),
			Bytes:  freddSizes[(pick/8)%uint64(len(freddSizes))],
			Seed:   i + 1,
		}}
	}
	pairs := len(freddModels) * len(f.systems)
	pair := shuffled(pairs, splitmix(base^2)+block/uint64(pairs))[block%uint64(pairs)]
	return freddReq{class: classColdTraining, study: serve.StudyRequest{
		Kind:     serve.KindTraining,
		System:   string(f.systems[pair%len(f.systems)]),
		Workload: freddModels[pair/len(f.systems)].name,
		Seed:     i + 1,
	}}
}

// shuffled returns a permutation of [0, n) drawn from key.
func shuffled(n int, key uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		key = splitmix(key)
		j := int(key % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitmix is the SplitMix64 finalizer, a cheap stateless hash for
// drawing request i of a seeded stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// post submits a study and returns the 200 body.
func (f *fredd) post(q *freddReq) ([]byte, error) {
	if err := q.study.Normalize(false); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(&q.study)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Post(f.base+"/v1/studies", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// check compares an answer with its reference: a hot answer must
// repeat the pre-warm bytes; a cold one must name its config hash and
// carry the directly simulated elapsed time.
func (f *fredd) check(q *freddReq, body []byte) error {
	if q.class == classHot && q.hot < len(f.hotBody) {
		if !bytes.Equal(body, f.hotBody[q.hot]) {
			return fmt.Errorf("%w: hot key %d answer differs from its first answer", errWrong, q.hot)
		}
		return nil
	}
	what := fmt.Sprint(q.study.Bytes)
	if q.study.Kind == serve.KindTraining {
		what = q.study.Workload
	}
	want := f.elapsed[refKey(q.study.Kind, q.study.System, what)]
	if !bytes.Contains(body, want) {
		return fmt.Errorf("%w: %s %s %s: answer lacks %s", errWrong, q.study.Kind, q.study.System, what, want)
	}
	hash := []byte(`"config_hash": "` + q.study.Manifest().Stamp().ConfigHash + `"`)
	if !bytes.Contains(body, hash) {
		return fmt.Errorf("%w: %s %s %s: answer lacks %s", errWrong, q.study.Kind, q.study.System, what, hash)
	}
	return nil
}

// reqRecord is one timed request.
type reqRecord struct {
	class int
	lat   float64 // seconds from due time to answer; +Inf when failed
	late  float64 // seconds the send lagged its due time
	bytes int
	err   error
}

// do sends request i of the mix and checks the answer.
func (f *fredd) do(i int64, tr *tracer) (class, size int, err error) {
	q := f.request(i)
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	id := tr.begin("http."+classNames[q.class], -1, i)
	body, err := f.post(&q)
	tr.end(id)
	if err == nil {
		err = f.check(&q, body)
	}
	return q.class, len(body), err
}

// probeGap separates the open loop's one-second segments of arrivals:
// no request is due in it, so once the requests in flight drain the
// host probe runs on a quiet process.
const probeGap = 40 * time.Millisecond

// openLoop sends freddRate requests per second for about d from nproc
// goroutines, each request timed from when it was due.
func (f *fredd) openLoop(d time.Duration, tr *tracer, hp *hostProbe) []reqRecord {
	perSegment := int(freddRate)
	n := int(d.Seconds() / (time.Second + probeGap).Seconds() * freddRate)
	recs := make([]reqRecord, n)
	base := f.nextReq.Add(int64(n)) - int64(n)
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i)/freddRate*float64(time.Second)) + time.Duration(i/perSegment)*probeGap)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				due := due(i)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				class, size, err := f.do(base+int64(i), tr)
				r := reqRecord{class: class, lat: time.Since(due).Seconds(), late: sent.Sub(due).Seconds(), bytes: size, err: err}
				if err != nil {
					r.lat = math.Inf(1)
				}
				recs[i] = r
			}
		}()
	}
	for k := perSegment; k < n; k += perSegment {
		// The gap before arrival k: wait for it, then for the requests
		// in flight, leaving the probe time to finish inside the gap.
		gapEnd := due(k)
		time.Sleep(time.Until(gapEnd.Add(-probeGap)))
		for f.inflight.Load() > 0 && time.Until(gapEnd) > probeGap/4 {
			time.Sleep(time.Millisecond / 2)
		}
		hp.run()
	}
	wg.Wait()
	hp.run()
	return recs
}

// closedLoop keeps nproc requests in flight for d of active time and
// returns the requests attempted, the failures and the rate of answered
// requests. Once a second it pauses the senders, lets the requests in
// flight finish and runs the host probe; pauses do not count as active
// time.
func (f *fredd) closedLoop(d time.Duration, tr *tracer, hp *hostProbe) phase {
	var ph phase
	var mu sync.Mutex
	var gate sync.RWMutex // each request holds it shared; a probe holds it exclusively
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					return
				}
				_, _, err := f.do(f.nextReq.Add(1)-1, tr)
				gate.RUnlock()
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.fail(err)
				}
				mu.Unlock()
			}
		}()
	}
	var active time.Duration
	for {
		t0 := time.Now()
		time.Sleep(min(time.Second, d-active))
		active += time.Since(t0)
		if active >= d {
			break
		}
		gate.Lock()
		hp.run()
		gate.Unlock()
	}
	gate.Lock()
	stop.Store(true)
	gate.Unlock()
	wg.Wait()
	hp.run()
	ph.opsPerSec = float64(ph.attempted-ph.failed) / active.Seconds()
	return ph
}

// measure runs the open loop for three quarters of d — its requests are
// the timed ops — then the closed loop for the rest to measure capacity.
func (f *fredd) measure(d time.Duration, tr *tracer, hp *hostProbe) phase {
	ph := openPhase(f.openLoop(d*3/4, tr, hp))
	closed := f.closedLoop(d-d*3/4, tr, hp)
	ph.merge(closed)
	ph.opsPerSec = closed.opsPerSec
	return ph
}

func openPhase(recs []reqRecord) phase {
	var ph phase
	for _, r := range recs {
		ph.attempted++
		ph.lat = append(ph.lat, r.lat)
		if r.err != nil {
			ph.fail(r.err)
		}
	}
	return ph
}

func (f *fredd) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.hs.Shutdown(ctx) // closes the listener; Serve then returns
	<-f.served
	f.srv.Close()
	f.client.CloseIdleConnections()
}

// scrape reads the server's fred-metrics/v1 artifact from /metrics.
func (f *fredd) scrape() ([]byte, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
