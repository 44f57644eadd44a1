package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/sweep"
)

// Worker executes campaign cells for a remote coordinator: it resolves
// the same spec and base configuration into its own sweep.Plan, then
// loops lease → RunCellAt(cell-local seed) → post result until the
// coordinator reports the campaign complete. The plan's content hash is
// the safety interlock: a job whose hash differs from the local plan —
// the worker was launched with different flags, an older spec, another
// campaign — is refused before any CPU burns, and the coordinator
// symmetrically rejects results under a foreign hash.
type Worker struct {
	plan   *sweep.Plan
	url    string
	sims   int
	opt    Options
	client *http.Client
	id     string
}

// NewWorker resolves the campaign locally and returns a worker bound to
// the coordinator at url. sims bounds the simulation pool used per cell
// (<= 0 means one per CPU).
func NewWorker(base core.Config, spec *sweep.Spec, url string, sims int, opt Options) (*Worker, error) {
	if opt.Obs != nil {
		// Instrument every cell run; Obs is excluded from the content
		// hash, so the coordinator interlock still matches.
		base.Obs = opt.Obs
	}
	if opt.TracePolicy != nil {
		// Record every cell run so posted results carry an exemplar trace;
		// like Obs, the policy is hash-excluded.
		base.TracePolicy = opt.TracePolicy
	}
	plan, err := sweep.NewPlan(base, spec)
	if err != nil {
		return nil, err
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return &Worker{
		plan:   plan,
		url:    strings.TrimRight(url, "/"),
		sims:   sims,
		opt:    opt,
		client: &http.Client{Timeout: 30 * time.Second},
		id:     fmt.Sprintf("%s-%d", host, os.Getpid()),
	}, nil
}

// ID returns the worker's self-assigned identity (hostname-pid).
func (w *Worker) ID() string { return w.id }

// Hash returns the locally resolved campaign content hash.
func (w *Worker) Hash() string { return w.plan.Hash() }

// transientRetries bounds consecutive failed exchanges before the worker
// decides the coordinator is gone. A coordinator that completed its
// campaign shuts down, so "unreachable after we were talking" normally
// means "campaign finished" and exits cleanly; never having reached it
// at all is an error.
const transientRetries = 5

// errProtocol marks a complete coordinator reply the worker could not
// decode. Retrying cannot help — the two builds disagree on the wire
// format — so it ends the worker instead of counting as a transient
// failure.
var errProtocol = errors.New("campaign: coordinator and worker disagree on the wire format")

// decodeReply decodes one coordinator reply, rejecting unknown fields so
// protocol drift between coordinator and worker builds fails loudly
// instead of half-decoding. A reply cut short (the coordinator went away
// mid-write) stays an ordinary, retryable error.
func decodeReply(r io.Reader, what string, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%s: reply cut short: %w", what, err)
	}
	return fmt.Errorf("%w: decoding %s reply: %v", errProtocol, what, err)
}

// Run executes the lease loop until the campaign completes, the context
// is cancelled, or a non-recoverable protocol error occurs. It returns
// the number of cells this worker computed.
func (w *Worker) Run(ctx context.Context) (int, error) {
	completed := 0
	contacted := false
	failures := 0
	lastReport := time.Now()
	for {
		if w.opt.Progress > 0 && time.Since(lastReport) >= w.opt.Progress {
			lastReport = time.Now()
			w.opt.logf("worker %s: %d cells executed", w.id, completed)
		}
		if err := sleepCtx(ctx, 0); err != nil {
			return completed, err
		}
		reply, err := w.lease()
		if errors.Is(err, errProtocol) {
			return completed, err
		}
		if err != nil {
			failures++
			if contacted && failures >= transientRetries {
				w.opt.logf("coordinator unreachable after %d attempts — assuming the campaign completed and shut down", failures)
				return completed, nil
			}
			if !contacted && failures >= 4*transientRetries {
				return completed, fmt.Errorf("campaign: coordinator %s unreachable: %w", w.url, err)
			}
			if err := sleepCtx(ctx, w.opt.poll()); err != nil {
				return completed, err
			}
			continue
		}
		contacted = true
		failures = 0
		switch {
		case reply.Done:
			w.opt.logf("campaign complete; worker %s executed %d cells", w.id, completed)
			return completed, nil
		case reply.Job != nil:
			if err := w.execute(reply.Job); err != nil {
				return completed, err
			}
			completed++
		default: // Wait (or an empty reply, treated the same)
			delay := w.opt.poll()
			if reply.RetryMs > 0 {
				delay = time.Duration(reply.RetryMs) * time.Millisecond
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return completed, err
			}
		}
	}
}

// execute runs one leased cell and posts its result.
func (w *Worker) execute(job *Job) error {
	if job.SpecHash != w.plan.Hash() {
		return fmt.Errorf(
			"campaign: stale worker: coordinator campaign is %s, local spec/flags resolve to %s — relaunch the worker with the coordinator's spec and base flags",
			shortHash(job.SpecHash), shortHash(w.plan.Hash()))
	}
	cells := w.plan.Cells()
	if job.Cell < 0 || job.Cell >= len(cells) {
		return fmt.Errorf("campaign: leased cell %d out of range [0, %d)", job.Cell, len(cells))
	}
	if job.Seed != cells[job.Cell].Seed {
		return fmt.Errorf("campaign: leased cell %d carries seed %d, local plan derives %d — campaign hash collision or protocol bug",
			job.Cell, job.Seed, cells[job.Cell].Seed)
	}
	if w.opt.Progress <= 0 {
		w.opt.logf("worker %s: running cell %d (%s)", w.id, job.Cell, cells[job.Cell].Label())
	}
	// Snapshot the registry around the cell so the post carries exactly
	// this cell's counter deltas (the worker runs cells sequentially).
	var before []obs.Sample
	if w.opt.Obs != nil {
		before = w.opt.Obs.CounterSamples()
	}
	cr, err := w.plan.RunCellAt(job.Cell, w.sims)
	if err != nil {
		return err
	}
	var deltas []obs.Sample
	if w.opt.Obs != nil {
		deltas = obs.DiffCounters(before, w.opt.Obs.CounterSamples())
	}
	reply, err := w.post(cr, deltas)
	if err != nil {
		return err
	}
	if w.opt.Progress > 0 {
		return nil
	}
	if reply.Duplicate {
		w.opt.logf("worker %s: cell %d was already complete (another worker won the race)", w.id, job.Cell)
	} else {
		w.opt.logf("worker %s: cell %d posted", w.id, job.Cell)
	}
	return nil
}

// lease performs one lease exchange.
func (w *Worker) lease() (*LeaseReply, error) {
	resp, err := w.client.Get(w.url + "/lease?worker=" + w.id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("lease: coordinator answered %s", resp.Status)
	}
	var reply LeaseReply
	if err := decodeReply(resp.Body, "lease", &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// post submits one finished cell, retrying transient transport failures.
// A coordinator-side rejection (stale hash, invalid cell) is permanent
// and fails the worker: recomputing the same bytes would be rejected
// again.
func (w *Worker) post(cr *sweep.CellResult, deltas []obs.Sample) (*ResultReply, error) {
	body, err := json.Marshal(ResultPost{SpecHash: w.plan.Hash(), Worker: w.id, Cell: *cr, Obs: deltas})
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding result for cell %d: %w", cr.Index, err)
	}
	var lastErr error
	for attempt := 0; attempt < transientRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(w.opt.poll())
		}
		resp, err := w.client.Post(w.url+"/result", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		var reply ResultReply
		decErr := decodeReply(resp.Body, "result", &reply)
		resp.Body.Close()
		if errors.Is(decErr, errProtocol) {
			return nil, decErr
		}
		if decErr != nil {
			lastErr = decErr
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("campaign: coordinator rejected cell %d: %s (%s)", cr.Index, reply.Error, resp.Status)
		}
		return &reply, nil
	}
	return nil, fmt.Errorf("campaign: posting cell %d failed after %d attempts: %w", cr.Index, transientRetries, lastErr)
}

// sleepCtx waits d (0 = just a cancellation check) or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
