package experiments

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// The sweep memo: one `fredsim all` pass asks for many training cells
// more than once — Summary reruns Figure 10 and Figure 11(a),
// CommProfile's cells are Figure 10's, Figure 11(a)'s baseline cells
// are Figure 2's — and every cell is a deterministic simulation, so a
// session simulates each distinct cell once and hands the report to
// every later request. Sessions with a per-run observer bypass it (see
// Session.observed): their artifacts need one recorded run per call.

// trainKey identifies a training cell: the system, the model by
// content (not by name, not by pointer), the strategy and the
// per-replica minibatch — everything RunTraining's result depends on.
type trainKey struct {
	sys        System
	model      [sha256.Size]byte
	strat      parallelism.Strategy
	perReplica int
}

// modelKey fingerprints a model by content. %#v prints every field,
// floats in their shortest exact form, so two models hash alike only
// if they are field-for-field equal. The rendering streams straight
// into the hash instead of being built as a string first.
func modelKey(m *workload.Model) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%#v", *m)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// memoEntry is one cell's result. report is nil while the cell is in
// flight; done closes when it settles. blamed records whether the
// report carries a critpath blame decomposition.
type memoEntry struct {
	done   chan struct{}
	report *training.Report
	blamed bool
}

// trainMemo is the session-wide result memo, shared by forEach's child
// sessions. Concurrent requests for one key are single-flight: the
// first simulates, the rest wait for it.
type trainMemo struct {
	mu      sync.Mutex
	entries map[trainKey]*memoEntry
}

func newTrainMemo() *trainMemo { return &trainMemo{entries: make(map[trainKey]*memoEntry)} }

// do returns the memoized report for key, calling run on a miss. An
// unblamed request takes any entry; a blamed one takes only a blamed
// entry and otherwise runs (with blame) and replaces it. A run that
// errors or panics leaves no entry, so waiters retry on their own.
func (m *trainMemo) do(key trainKey, blamed bool, run func() (*training.Report, error)) (*training.Report, error) {
	m.mu.Lock()
	for {
		e := m.entries[key]
		if e == nil {
			break
		}
		if e.report == nil {
			m.mu.Unlock()
			<-e.done
			m.mu.Lock()
			continue
		}
		if e.blamed || !blamed {
			m.mu.Unlock()
			return e.report, nil
		}
		break
	}
	e := &memoEntry{done: make(chan struct{}), blamed: blamed}
	m.entries[key] = e
	m.mu.Unlock()

	var r *training.Report
	var err error
	defer func() {
		m.mu.Lock()
		if r != nil && err == nil {
			e.report = r
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(e.done)
	}()
	r, err = run()
	return r, err
}

// detach copies a report for the memo with its Config no longer
// pointing at the wafer, so an entry does not keep the simulated
// network alive for the rest of the session.
func detach(r *training.Report) *training.Report {
	c := *r
	cfg := *r.Config
	cfg.Wafer = nil
	c.Config = &cfg
	return &c
}
