// Package scenario is the deterministic phased-dynamics engine: it
// describes an experiment run as a declarative timeline of named phases,
// each carrying typed dynamics events that are applied inside the
// simulation's event loop. The paper evaluates its protocols on one static
// workload; this package opens the workloads its motivation describes —
// peers "failing or leaving the network at any moment" (churn waves), files
// becoming suddenly popular (flash crowds), catalogues that change under
// the experiment's feet (content dynamics), and physical regions degrading
// (latency inflation, link loss).
//
// A Spec divides the measured query stream into phases by fraction; phase
// k's events fire exactly when the k-th boundary query is submitted, so the
// timeline is reproducible for a fixed seed and invariant to the worker
// count (every simulation owns its engine and RNG streams). Phase 0's
// dynamics are active from simulation start — they shape the warmup too,
// which is how the built-in steady-churn scenario churns the whole run.
//
// The supported event kinds:
//
//	churn-wave        burst departure of a fraction of online peers
//	rejoin            burst return of a fraction of offline peers
//	flash-crowd       promote a hot file set to the popularity head,
//	                  spike the arrival rate, sharpen the Zipf exponent
//	calm              restore the original popularity ranking and rate
//	inject-files      add new catalogue files with initial providers
//	remove-files      withdraw all copies of popular files
//	migrate-providers rehome every copy of chosen files to random peers
//	degrade-region    inflate RTTs and drop links in the most populous
//	                  localities
//	restore-region    clear all regional latency inflation
//
// Phases may additionally run the periodic leave/rejoin churn process at a
// per-phase intensity. Scenarios are plain data: the built-in registry
// (Lookup, Names) covers the common shapes, and ParseSpec loads new ones from
// JSON so new scenarios need no code. Per-phase metrics come from the
// streaming metrics collector, which seals a full-metric PhaseWindow at
// each boundary (see Spec.Marks).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/sim"
)

// Spec is a declarative scenario: a named timeline of phases over the
// measured query stream.
type Spec struct {
	// Name identifies the scenario (registry key, report label).
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// ChurnIntervalS is the cadence, in simulated seconds, of the periodic
	// churn process for phases that enable churn (default 60).
	ChurnIntervalS float64 `json:"churn_interval_s,omitempty"`
	// Phases partition the measured queries in order.
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec is one contiguous span of the scenario timeline.
type PhaseSpec struct {
	// Name labels the phase in per-phase metric reports.
	Name string `json:"name"`
	// Fraction is the phase's share of the measured queries; fractions are
	// normalised over the spec, so 1/2/1 means 25%/50%/25%.
	Fraction float64 `json:"fraction"`
	// Churn, when non-nil, runs the periodic leave/rejoin process at this
	// intensity while the phase is active.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Events are applied once, in order, at phase entry (phase 0: at
	// simulation start, before warmup).
	Events []EventSpec `json:"events,omitempty"`
}

// ChurnSpec parameterises the periodic churn process of one phase. Degree
// targets for rewiring come from the run's churn defaults.
type ChurnSpec struct {
	// LeaveProb / JoinProb are the per-interval per-peer probabilities.
	LeaveProb float64 `json:"leave_prob"`
	JoinProb  float64 `json:"join_prob"`
	// MinOnlineFraction floors the online population (default 0.5).
	MinOnlineFraction float64 `json:"min_online_fraction,omitempty"`
}

// Event kinds accepted by EventSpec.Kind.
const (
	KindChurnWave        = "churn-wave"
	KindRejoin           = "rejoin"
	KindFlashCrowd       = "flash-crowd"
	KindCalm             = "calm"
	KindInjectFiles      = "inject-files"
	KindRemoveFiles      = "remove-files"
	KindMigrateProviders = "migrate-providers"
	KindDegradeRegion    = "degrade-region"
	KindRestoreRegion    = "restore-region"
)

// EventSpec is one typed dynamics event in JSON-friendly form: Kind selects
// the event type and the remaining fields parameterise it (unused fields
// are ignored by the other kinds).
type EventSpec struct {
	// Kind is one of the Kind… constants.
	Kind string `json:"kind"`

	// Frac is the population fraction for churn-wave (of online peers) and
	// rejoin (of offline peers).
	Frac float64 `json:"frac,omitempty"`

	// HotFiles is the size of a flash crowd's hot set (0 = keep ranking).
	HotFiles int `json:"hot_files,omitempty"`
	// RateFactor scales the query arrival rate (flash-crowd; 0 = keep).
	RateFactor float64 `json:"rate_factor,omitempty"`
	// ZipfS, when positive, replaces the popularity exponent
	// (flash-crowd).
	ZipfS float64 `json:"zipf_s,omitempty"`

	// Files is the number of files affected by the content-dynamics kinds.
	Files int `json:"files,omitempty"`
	// Copies is the initial provider count per injected file (default 1).
	Copies int `json:"copies,omitempty"`
	// Hot promotes injected files to the head of the popularity ranking (a
	// new-release flash) instead of the tail.
	Hot bool `json:"hot,omitempty"`

	// Localities is how many of the most populous localities degrade.
	Localities int `json:"localities,omitempty"`
	// LatencyFactor inflates every RTT touching a degraded locality.
	LatencyFactor float64 `json:"latency_factor,omitempty"`
	// LinkDropFrac is the fraction of links touching a degraded locality
	// that are severed.
	LinkDropFrac float64 `json:"link_drop_frac,omitempty"`
}

// validKinds gates EventSpec validation.
var validKinds = map[string]bool{
	KindChurnWave: true, KindRejoin: true,
	KindFlashCrowd: true, KindCalm: true,
	KindInjectFiles: true, KindRemoveFiles: true, KindMigrateProviders: true,
	KindDegradeRegion: true, KindRestoreRegion: true,
}

// Validate checks the spec's internal consistency: a name, at least one
// phase, positive fractions, and well-formed events.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil spec")
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	}
	if s.ChurnIntervalS < 0 {
		return fmt.Errorf("scenario %q: negative churn interval", s.Name)
	}
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario %q: phase %d needs a name", s.Name, i)
		}
		if p.Fraction <= 0 {
			return fmt.Errorf("scenario %q: phase %q needs a positive fraction", s.Name, p.Name)
		}
		if c := p.Churn; c != nil {
			if c.LeaveProb < 0 || c.LeaveProb > 1 || c.JoinProb < 0 || c.JoinProb > 1 {
				return fmt.Errorf("scenario %q: phase %q churn probabilities must be in [0,1]", s.Name, p.Name)
			}
		}
		for j, e := range p.Events {
			if !validKinds[e.Kind] {
				return fmt.Errorf("scenario %q: phase %q event %d has unknown kind %q", s.Name, p.Name, j, e.Kind)
			}
			switch e.Kind {
			case KindChurnWave, KindRejoin:
				if e.Frac <= 0 || e.Frac > 1 {
					return fmt.Errorf("scenario %q: phase %q %s needs frac in (0,1]", s.Name, p.Name, e.Kind)
				}
			case KindFlashCrowd:
				if e.HotFiles < 0 || e.RateFactor < 0 || e.ZipfS < 0 {
					return fmt.Errorf("scenario %q: phase %q flash-crowd parameters must be non-negative", s.Name, p.Name)
				}
				if e.HotFiles == 0 && e.RateFactor == 0 && e.ZipfS == 0 {
					return fmt.Errorf("scenario %q: phase %q flash-crowd changes nothing", s.Name, p.Name)
				}
			case KindInjectFiles, KindRemoveFiles, KindMigrateProviders:
				if e.Files <= 0 {
					return fmt.Errorf("scenario %q: phase %q %s needs files > 0", s.Name, p.Name, e.Kind)
				}
				if e.Copies < 0 {
					return fmt.Errorf("scenario %q: phase %q %s needs copies >= 0", s.Name, p.Name, e.Kind)
				}
			case KindDegradeRegion:
				if e.Localities <= 0 {
					return fmt.Errorf("scenario %q: phase %q degrade-region needs localities > 0", s.Name, p.Name)
				}
				if e.LatencyFactor < 1 && e.LinkDropFrac <= 0 {
					return fmt.Errorf("scenario %q: phase %q degrade-region degrades nothing", s.Name, p.Name)
				}
				if e.LinkDropFrac < 0 || e.LinkDropFrac > 1 {
					return fmt.Errorf("scenario %q: phase %q link_drop_frac must be in [0,1]", s.Name, p.Name)
				}
			}
		}
	}
	return nil
}

// Marks resolves the phase grid onto a run of `measured` queries: mark k
// closes phase k at its cumulative query count. Every phase is guaranteed
// at least one query, the last mark always equals measured, and the marks
// double as the metrics collector's phase grid, so the dynamics timeline
// and the per-phase measurement windows can never drift apart.
func (s *Spec) Marks(measured int) ([]metrics.PhaseMark, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Phases)
	if measured < n {
		return nil, fmt.Errorf("scenario %q: %d phases need at least %d measured queries, got %d",
			s.Name, n, n, measured)
	}
	total := 0.0
	for _, p := range s.Phases {
		total += p.Fraction
	}
	marks := make([]metrics.PhaseMark, n)
	cum := 0.0
	prev := 0
	for i, p := range s.Phases {
		cum += p.Fraction
		end := int(float64(cum/total*float64(measured)) + 0.5)
		if end <= prev {
			end = prev + 1 // at least one query per phase
		}
		if limit := measured - (n - 1 - i); end > limit {
			end = limit // leave room for the remaining phases
		}
		marks[i] = metrics.PhaseMark{Name: p.Name, End: end}
		prev = end
	}
	marks[n-1].End = measured
	return marks, nil
}

// ChurnInterval returns the periodic-churn cadence as simulator time.
func (s *Spec) ChurnInterval() sim.Time {
	if s.ChurnIntervalS > 0 {
		return sim.FromSeconds(s.ChurnIntervalS)
	}
	return 60 * sim.Second
}

// HasChurn reports whether any phase runs the periodic churn process.
func (s *Spec) HasChurn() bool {
	for _, p := range s.Phases {
		if p.Churn != nil {
			return true
		}
	}
	return false
}

// ParseSpec decodes and validates a JSON scenario (see DecodeSpec).
func ParseSpec(data []byte) (*Spec, error) { return DecodeSpec[Spec]("scenario", data) }

// DecodeSpec is the one strict loader of hand-written JSON specs, scenario
// and sweep: data must hold exactly one JSON value, which decodes into a
// fresh S and passes its Validate. Unknown fields are refused, so a typo
// fails loudly instead of silently running the wrong experiment, and so is
// anything after the value, which would otherwise be ignored. pkg prefixes
// the decode errors.
func DecodeSpec[S any, PS interface {
	*S
	Validate() error
}](pkg string, data []byte) (*S, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(S)
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%s: parsing spec: %w", pkg, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: parsing spec: data after the spec", pkg)
	}
	if err := PS(s).Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
