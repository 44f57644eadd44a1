package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sweep"
)

// cellState tracks one grid cell through the lease protocol.
type cellState uint8

const (
	cellPending cellState = iota // waiting for a worker
	cellLeased                   // handed out, result due before expiry
	cellDone                     // folded into the campaign
)

// Coordinator owns one campaign's distribution: it expands the spec into
// leasable cells, serves them over HTTP, reissues leases whose workers
// go quiet, deduplicates double results (first complete wins — harmless,
// since every result for a cell is byte-identical by the determinism
// contract), checkpoints finished cells, and folds results into the same
// index-addressed grid the in-process Run fills, so the exported bytes are
// identical to an in-process run.
//
// Protocol (all bodies JSON):
//
//	GET  /lease?worker=ID → LeaseReply (a Job, Wait, or Done)
//	POST /result          ← ResultPost, → ResultReply
//	GET  /status          → Status
type Coordinator struct {
	opt          Options
	leaseTimeout time.Duration

	mu        sync.Mutex
	pr        *prepared
	state     []cellState
	expiry    []time.Time
	holder    []string
	doneCount int
	complete  bool
	start     time.Time
	done      chan struct{}

	workers map[string]*workerInfo
	rate    *obs.RateEWMA
	reg     *obs.Registry
	instr   *coordInstr
}

// NewCoordinator resolves the campaign, loads any resumable checkpoints
// (cells restored from the store are born done and never leased), and
// returns a coordinator ready to serve. A fully resumed campaign is
// complete immediately.
func NewCoordinator(base core.Config, spec *sweep.Spec, opt Options) (*Coordinator, error) {
	pr, err := prepare(base, spec, opt)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opt:          opt,
		leaseTimeout: opt.leaseTimeout(),
		pr:           pr,
		state:        make([]cellState, pr.stats.Cells),
		expiry:       make([]time.Time, pr.stats.Cells),
		holder:       make([]string, pr.stats.Cells),
		start:        time.Now(),
		done:         make(chan struct{}),
		workers:      make(map[string]*workerInfo),
		rate:         obs.NewRateEWMA(0),
	}
	if opt.Obs != nil {
		c.enableObs(opt.Obs)
	}
	for i, d := range pr.done {
		if d {
			c.state[i] = cellDone
			c.doneCount++
		}
	}
	if c.doneCount == len(c.state) {
		c.completeLocked()
	}
	return c, nil
}

// completeLocked seals the campaign; callers hold mu (or, in the
// constructor, exclusive access).
func (c *Coordinator) completeLocked() {
	if c.complete {
		return
	}
	c.complete = true
	c.pr.camp.Elapsed = time.Since(c.start)
	close(c.done)
}

// Hash returns the campaign's content hash.
func (c *Coordinator) Hash() string { return c.pr.plan.Hash() }

// NumCells returns the campaign grid size.
func (c *Coordinator) NumCells() int { return c.pr.stats.Cells }

// Done is closed when every cell is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Campaign returns the folded campaign; only meaningful once Done is
// closed.
func (c *Coordinator) Campaign() *sweep.Campaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pr.camp
}

// Stats returns a snapshot of the run statistics.
func (c *Coordinator) Stats() RunStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.pr.stats
	st.Warnings = append([]string(nil), c.pr.stats.Warnings...)
	return st
}

// Status returns a snapshot of the lease-protocol state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reapLocked(now)
	st := Status{
		SpecHash:      c.pr.plan.Hash(),
		Name:          c.pr.plan.Spec().Name,
		Cells:         len(c.state),
		Done:          c.doneCount,
		Resumed:       c.pr.stats.Resumed,
		Reissued:      c.pr.stats.Reissued,
		Duplicates:    c.pr.stats.Duplicates,
		Complete:      c.complete,
		UptimeSeconds: now.Sub(c.start).Seconds(),
		Workers:       c.workerStatusLocked(now),
	}
	for _, s := range c.state {
		switch s {
		case cellLeased:
			st.Leased++
		case cellPending:
			st.Pending++
		}
	}
	return st
}

// reapLocked returns expired leases to the pending pool; callers hold mu.
func (c *Coordinator) reapLocked(now time.Time) {
	for i, st := range c.state {
		if st == cellLeased && now.After(c.expiry[i]) {
			c.state[i] = cellPending
			c.pr.stats.Reissued++
			if w := c.workers[c.holder[i]]; w != nil {
				w.expired++
			}
			if c.instr != nil {
				c.instr.reissued.Inc()
			}
			c.opt.logf("lease on cell %d (worker %q) expired after %s; reissuing", i, c.holder[i], c.leaseTimeout)
		}
	}
}

// lease implements one lease request: expire stale leases, then hand out
// the lowest pending cell.
func (c *Coordinator) lease(worker string) LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reapLocked(now)
	c.touchWorkerLocked(worker, now)
	if c.doneCount == len(c.state) {
		return LeaseReply{Done: true}
	}
	idx := -1
	for i, st := range c.state {
		if st == cellPending {
			idx = i
			break
		}
	}
	if idx < 0 {
		return LeaseReply{Wait: true, RetryMs: c.opt.poll().Milliseconds()}
	}
	c.state[idx] = cellLeased
	c.expiry[idx] = now.Add(c.leaseTimeout)
	c.holder[idx] = worker
	if c.instr != nil {
		c.instr.leases.Inc()
	}
	cells := c.pr.plan.Cells()
	return LeaseReply{
		Job: &Job{
			SpecHash:  c.pr.plan.Hash(),
			Cell:      idx,
			Seed:      cells[idx].Seed,
			Protocols: c.pr.plan.Protocols(),
			Trials:    c.pr.plan.Trials(),
		},
		LeaseMs: c.leaseTimeout.Milliseconds(),
	}
}

// result implements one result post. The first complete result for a
// cell wins; later duplicates — a slow worker racing a reissued lease —
// are acknowledged and discarded.
func (c *Coordinator) result(post *ResultPost) (ResultReply, int) {
	if post.SpecHash != c.pr.plan.Hash() {
		return ResultReply{Error: fmt.Sprintf(
			"stale result: campaign %s, this coordinator runs %s (spec or base flags differ)",
			shortHash(post.SpecHash), shortHash(c.pr.plan.Hash()))}, http.StatusConflict
	}
	cr := post.Cell
	if err := c.pr.plan.VerifyCell(&cr); err != nil {
		c.mu.Lock()
		if cr.Index >= 0 && cr.Index < len(c.state) && c.state[cr.Index] == cellLeased {
			c.state[cr.Index] = cellPending // let another worker redo it
		}
		warn := fmt.Sprintf("result from worker %q rejected: %v", post.Worker, err)
		c.pr.stats.Warnings = append(c.pr.stats.Warnings, warn)
		c.mu.Unlock()
		c.opt.logf("%s", warn)
		return ResultReply{Error: err.Error()}, http.StatusUnprocessableEntity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	w := c.touchWorkerLocked(post.Worker, now)
	if c.state[cr.Index] == cellDone {
		c.pr.stats.Duplicates++
		if c.instr != nil {
			c.instr.duplicates.Inc()
		}
		c.opt.logf("duplicate result for cell %d from worker %q discarded (first complete wins)", cr.Index, post.Worker)
		return ResultReply{OK: true, Duplicate: true}, http.StatusOK
	}
	if c.pr.store != nil {
		if err := c.pr.store.Put(&cr); err != nil {
			// The cell still folds into the in-memory campaign; only its
			// durability is degraded.
			warn := fmt.Sprintf("checkpointing cell %d failed: %v", cr.Index, err)
			c.pr.stats.Warnings = append(c.pr.stats.Warnings, warn)
			c.opt.logf("%s", warn)
		}
	}
	c.pr.camp.Cells[cr.Index] = cr
	c.state[cr.Index] = cellDone
	c.doneCount++
	c.pr.stats.Executed++
	if w != nil {
		w.cells++
	}
	if c.instr != nil {
		c.instr.executed.Inc()
	}
	c.rate.Observe(float64(c.doneCount), now)
	// With a progress interval the periodic summary replaces the
	// per-cell completion lines.
	if c.opt.Progress <= 0 {
		c.opt.logf("cell %d done (%d/%d, worker %q)", cr.Index, c.doneCount, len(c.state), post.Worker)
	}
	if c.doneCount == len(c.state) {
		c.completeLocked()
	}
	return ResultReply{OK: true}, http.StatusOK
}

// Handler returns the coordinator's HTTP interface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			http.Error(w, "lease wants GET or POST", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, c.lease(r.URL.Query().Get("worker")))
	})
	mux.HandleFunc("/result", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "result wants POST", http.StatusMethodNotAllowed)
			return
		}
		var post ResultPost
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&post); err != nil {
			writeJSON(w, http.StatusBadRequest, ResultReply{Error: fmt.Sprintf("decoding result: %v", err)})
			return
		}
		reply, code := c.result(&post)
		// Fold the worker's run-level counter deltas in only when this
		// result was the one accepted: the absorbed totals then match
		// what one uninterrupted in-process sweep would have produced.
		if c.reg != nil && reply.OK && !reply.Duplicate && len(post.Obs) > 0 {
			c.reg.AbsorbCounters(post.Obs)
		}
		writeJSON(w, code, reply)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if cell := r.URL.Query().Get("cell"); cell != "" {
			idx, err := strconv.Atoi(cell)
			if err != nil {
				http.Error(w, "traces: cell wants an integer index", http.StatusBadRequest)
				return
			}
			body, ok := c.traceFor(idx)
			if !ok {
				http.Error(w, fmt.Sprintf("no exemplar trace for cell %d", idx), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, body)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, c.traceIndex())
	})
	if c.reg != nil {
		obs.RegisterOn(mux, c.reg)
	}
	return mux
}

// traceIndex renders the exemplar-trace listing: one line per completed
// cell that shipped a worst-case trace, with the detail URL.
func (c *Coordinator) traceIndex() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "exemplar traces: campaign %q (%s)\n", c.pr.plan.Spec().Name, shortHash(c.pr.plan.Hash()))
	n := 0
	for i := range c.pr.camp.Cells {
		cr := &c.pr.camp.Cells[i]
		if c.state[i] != cellDone || cr.Exemplar == nil {
			continue
		}
		ex := cr.Exemplar
		status := "ok"
		if ex.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "  cell %-4d %-30s %s trial=%d q=%d latency=%.3fs hops=%d %s  /traces?cell=%d\n",
			cr.Index, cr.Label(), ex.Protocol, ex.Trial, ex.Query, ex.LatencySeconds, ex.Hops, status, cr.Index)
		n++
	}
	if n == 0 {
		b.WriteString("  (none yet — cells ship exemplars only when the campaign runs with a trace policy)\n")
	}
	return b.String()
}

// traceFor renders one cell's exemplar trace as text.
func (c *Coordinator) traceFor(idx int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx >= len(c.pr.camp.Cells) || c.state[idx] != cellDone {
		return "", false
	}
	cr := &c.pr.camp.Cells[idx]
	ex := cr.Exemplar
	if ex == nil {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cell %d %s — worst query: protocol=%s trial=%d q=%d latency=%.3fs hops=%d\n",
		cr.Index, cr.Label(), ex.Protocol, ex.Trial, ex.Query, ex.LatencySeconds, ex.Hops)
	b.WriteString(ex.Rendered)
	return b.String(), true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Serve binds addr, serves the lease protocol until the campaign
// completes, shuts the server down, and returns the folded campaign.
// It is the blocking, CLI-shaped entry point; tests drive Handler
// directly under httptest instead.
func (c *Coordinator) Serve(addr string) (*sweep.Campaign, RunStats, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, c.Stats(), fmt.Errorf("campaign: coordinator listen: %w", err)
	}
	c.opt.logf("coordinator serving campaign %s (%q, %d cells, %d resumed) on http://%s",
		shortHash(c.Hash()), c.pr.plan.Spec().Name, c.NumCells(), c.Stats().Resumed, l.Addr())
	srv := &http.Server{Handler: c.Handler()}
	if c.opt.Progress > 0 {
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			c.progressLoop(c.opt.Progress)
		}()
		// The loop exits when the campaign completes; wait it out so no
		// Logf call outlives Serve.
		defer func() { <-finished }()
	}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	select {
	case <-c.done:
	case err := <-errCh:
		return nil, c.Stats(), fmt.Errorf("campaign: coordinator serve: %w", err)
	}
	// Linger briefly so workers polling right now get a clean {done} reply
	// instead of a connection error, then drain in-flight requests.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	return c.Campaign(), c.Stats(), nil
}
