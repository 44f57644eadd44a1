package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
	"github.com/p2prepro/locaware/internal/workload"
)

// World is the assembled simulation a scenario acts on: the network (whose
// engine, overlay, latency model and locator the runtime reaches through
// it) and the workload beside it. All pointers are owned by one simulation;
// the runtime mutates them only from the engine goroutine, between events,
// so no protocol code ever observes a half-applied phase.
type World struct {
	Catalog *workload.Catalog
	Gen     *workload.Generator
	Net     *protocol.Network
	// ChurnDefaults supplies the degree targets (AvgDegree, MaxDegree)
	// used whenever churn or a wave rewires peers, and the default
	// online-population floor.
	ChurnDefaults overlay.ChurnConfig
}

// Runtime executes one Spec against one World. It is created by Attach at
// simulation build time and driven by the experiment loop: BeginMeasured
// fixes the phase boundaries once the measured query count is known, and
// OnSubmit advances the timeline as measured queries are submitted.
type Runtime struct {
	spec *Spec
	w    World

	// churnRng drives the periodic churn process; it is a dedicated
	// stream so scenario events never perturb it. eventRng drives
	// everything else.
	churnRng *rand.Rand
	eventRng *rand.Rand

	// starts[k] is the 0-based measured query index at which phase k
	// enters; resolved by BeginMeasured. current indexes the active phase.
	starts  []int
	current int

	// activeChurn is the churn intensity of the current phase (nil = the
	// periodic process idles this phase).
	activeChurn *overlay.ChurnConfig

	// originalTargets and originalZipfS snapshot the popularity ranking
	// and exponent at attach so a calm event can restore the pre-crowd
	// world.
	originalTargets []workload.FileID
	originalZipfS   float64
}

// Attach validates the spec, wires the periodic churn control into the
// engine (when any phase uses churn), and applies phase 0 — whose dynamics
// are active from simulation start, warmup included. It must be called at
// simulation build time, before any events run.
func Attach(spec *Spec, w World, churnRng, eventRng *rand.Rand) (*Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		spec:            spec,
		w:               w,
		churnRng:        churnRng,
		eventRng:        eventRng,
		originalTargets: w.Gen.Targets(),
		originalZipfS:   w.Gen.ZipfS(),
	}
	if spec.HasChurn() {
		// The tick is always scheduled (fixed event cadence) and the
		// per-phase config decides whether it consumes churn randomness —
		// so phases that pause churn cannot shift the event sequence
		// numbers of phases that resume it. One event reschedules itself
		// for the whole run.
		w.Net.Engine.PostEvent(spec.ChurnInterval(),
			&churnTickEvent{rt: rt, period: spec.ChurnInterval()})
	}
	rt.enterPhase(0)
	return rt, nil
}

// churnTickEvent is the periodic churn process as a simulator event: it
// applies one churn step when the active phase enables churn, then
// reschedules itself.
type churnTickEvent struct {
	rt     *Runtime
	period sim.Time
}

func (ev *churnTickEvent) EventName() string { return "churn-tick" }

func (ev *churnTickEvent) Fire(e *sim.Engine) {
	rt := ev.rt
	if rt.activeChurn != nil {
		overlay.ChurnStep(rt.w.Net.Graph, *rt.activeChurn, rt.churnRng)
	}
	e.PostEvent(ev.period, ev)
}

// BeginMeasured fixes the phase boundaries: marks is the spec's grid
// resolved for the run's measured query count (Spec.Marks), the same marks
// the run's collector seals its phase windows at. The experiment loop calls
// it once, before the first submission.
func (rt *Runtime) BeginMeasured(marks []metrics.PhaseMark) {
	rt.starts = make([]int, len(marks))
	for i := 1; i < len(marks); i++ {
		rt.starts[i] = marks[i-1].End
	}
	// Phase 0 entered at Attach, before any tracer could be installed;
	// announce it now so a traced run shows the full timeline.
	rt.tracePhase(rt.current)
}

// OnSubmit advances the phase timeline; the experiment loop calls it with
// the 0-based measured query index just before submitting that query, from
// inside the submission event, so phase entry happens at a deterministic
// point of the event order.
func (rt *Runtime) OnSubmit(measuredIdx int) {
	for rt.current+1 < len(rt.starts) && measuredIdx >= rt.starts[rt.current+1] {
		rt.enterPhase(rt.current + 1)
	}
}

// tracePhase emits a phase-entry event when the simulation is being traced.
// The tracer is read at event time, not attach time: core installs the
// flight recorder on the network after attaching the scenario.
func (rt *Runtime) tracePhase(k int) {
	if !rt.w.Net.TraceEnabled() {
		return
	}
	p := rt.spec.Phases[k]
	detail := fmt.Sprintf("scenario=%s phase=%s (%d/%d)", rt.spec.Name, p.Name, k+1, len(rt.spec.Phases))
	if len(p.Events) > 0 {
		kinds := make([]string, len(p.Events))
		for i, e := range p.Events {
			kinds[i] = e.Kind
		}
		detail += " events=" + fmt.Sprint(kinds)
	}
	rt.w.Net.EmitControl(trace.PhaseEnter, detail)
}

// enterPhase activates phase k: its churn intensity, then its entry events
// in spec order.
func (rt *Runtime) enterPhase(k int) {
	rt.current = k
	rt.tracePhase(k)
	p := rt.spec.Phases[k]
	if p.Churn != nil {
		cfg := rt.w.ChurnDefaults
		cfg.LeaveProb = p.Churn.LeaveProb
		cfg.JoinProb = p.Churn.JoinProb
		if p.Churn.MinOnlineFraction > 0 {
			cfg.MinOnlineFraction = p.Churn.MinOnlineFraction
		}
		rt.activeChurn = &cfg
	} else {
		rt.activeChurn = nil
	}
	for _, e := range p.Events {
		rt.apply(e)
	}
}

// apply executes one typed dynamics event against the world.
func (rt *Runtime) apply(e EventSpec) {
	switch e.Kind {
	case KindChurnWave:
		overlay.BurstLeave(rt.w.Net.Graph, e.Frac, rt.w.ChurnDefaults.MinOnlineFraction,
			rt.w.ChurnDefaults.MaxDegree, rt.eventRng)
	case KindRejoin:
		overlay.BurstJoin(rt.w.Net.Graph, e.Frac, rt.w.ChurnDefaults.AvgDegree,
			rt.w.ChurnDefaults.MaxDegree, rt.eventRng)
	case KindFlashCrowd:
		rt.flashCrowd(e)
	case KindCalm:
		rt.w.Gen.SetTargets(rt.originalTargets)
		rt.w.Gen.SetZipfS(rt.originalZipfS)
		rt.w.Gen.SetRateFactor(1)
	case KindInjectFiles:
		rt.injectFiles(e)
	case KindRemoveFiles:
		rt.removeFiles(e)
	case KindMigrateProviders:
		rt.migrateProviders(e)
	case KindDegradeRegion:
		rt.degradeRegion(e)
	case KindRestoreRegion:
		rt.w.Net.Model.ClearLatencyFactors()
	default:
		// Validate rejects unknown kinds before Attach; reaching here is a
		// programming error.
		panic(fmt.Sprintf("scenario: unhandled event kind %q", e.Kind))
	}
}

// flashCrowd promotes a random hot set to the head of the popularity
// ranking and applies the rate/exponent spike — the crowd rushes files
// that were not necessarily popular before, which is what re-ranks the
// world instead of merely amplifying it.
func (rt *Runtime) flashCrowd(e EventSpec) {
	if e.HotFiles > 0 {
		targets := slices.Clone(rt.w.Gen.Targets())
		hot := min(e.HotFiles, len(targets))
		// Partial Fisher–Yates: draw the hot set into the head positions.
		for i := 0; i < hot; i++ {
			j := i + rt.eventRng.Intn(len(targets)-i)
			targets[i], targets[j] = targets[j], targets[i]
		}
		rt.w.Gen.SetTargets(targets)
	}
	if e.ZipfS > 0 {
		rt.w.Gen.SetZipfS(e.ZipfS)
	}
	if e.RateFactor > 0 {
		rt.w.Gen.SetRateFactor(e.RateFactor)
	}
}

// injectFiles adds new catalogue files, seeds each at `Copies` random
// online providers, and makes them queryable.
func (rt *Runtime) injectFiles(e EventSpec) {
	copies := e.Copies
	if copies <= 0 {
		copies = 1
	}
	ids := rt.w.Catalog.NewFiles(e.Files, rt.eventRng)
	for _, id := range ids {
		f := rt.w.Catalog.File(id)
		excluded := make(map[overlay.PeerID]bool, copies)
		for c := 0; c < copies; c++ {
			p := rt.w.Net.Graph.RandomOnlinePeer(rt.eventRng, excluded)
			if p < 0 {
				break
			}
			excluded[p] = true
			rt.w.Net.Node(p).AddFile(f)
		}
	}
	if e.Hot {
		// A new release the crowd wants: head of the ranking.
		rt.w.Gen.SetTargets(append(ids, rt.w.Gen.Targets()...))
	} else {
		rt.w.Gen.AddTargets(ids...)
	}
}

// removeFiles withdraws every copy of `Files` randomly chosen queryable
// files. The files stay in the ranking: queries keep asking for content
// that no longer exists, and cached indexes keep advertising providers
// that no longer have it — the staleness signature of content churn.
func (rt *Runtime) removeFiles(e EventSpec) {
	for _, id := range rt.pickTargets(e.Files) {
		f := rt.w.Catalog.File(id)
		for p := range overlay.PeerID(rt.w.Net.Graph.N()) {
			rt.w.Net.Node(p).RemoveFile(f)
		}
	}
}

// migrateProviders rehomes the copies of `Files` randomly chosen files:
// each existing copy is withdrawn and an equal number of random online
// peers become providers instead — content drifting across the overlay.
func (rt *Runtime) migrateProviders(e EventSpec) {
	for _, id := range rt.pickTargets(e.Files) {
		f := rt.w.Catalog.File(id)
		moved := 0
		excluded := make(map[overlay.PeerID]bool)
		for p := range overlay.PeerID(rt.w.Net.Graph.N()) {
			if rt.w.Net.Node(p).RemoveFile(f) {
				moved++
				excluded[p] = true
			}
		}
		for c := 0; c < moved; c++ {
			p := rt.w.Net.Graph.RandomOnlinePeer(rt.eventRng, excluded)
			if p < 0 {
				break
			}
			excluded[p] = true
			rt.w.Net.Node(p).AddFile(f)
		}
	}
}

// pickTargets draws up to n distinct files from the current queryable
// ranking, uniformly.
func (rt *Runtime) pickTargets(n int) []workload.FileID {
	targets := slices.Clone(rt.w.Gen.Targets())
	n = min(n, len(targets))
	for i := 0; i < n; i++ {
		j := i + rt.eventRng.Intn(len(targets)-i)
		targets[i], targets[j] = targets[j], targets[i]
	}
	return targets[:n]
}

// degradeRegion inflates the RTT of every path touching the most populous
// `Localities` locIds and severs a fraction of their overlay links —
// regional congestion plus partition pressure.
func (rt *Runtime) degradeRegion(e EventSpec) {
	region := rt.topLocalities(e.Localities)
	inRegion := func(p overlay.PeerID) bool {
		_, ok := region[rt.w.Net.Locator.LocID(int(p))]
		return ok
	}
	if e.LatencyFactor > 1 {
		for i := 0; i < rt.w.Net.Graph.N(); i++ {
			if inRegion(overlay.PeerID(i)) {
				rt.w.Net.Model.SetLatencyFactor(i, e.LatencyFactor)
			}
		}
	}
	if e.LinkDropFrac > 0 {
		// Collect the candidate links first: RemoveLink mutates the
		// neighbour lists Neighbors aliases.
		type link struct{ a, b overlay.PeerID }
		var candidates []link
		for i := 0; i < rt.w.Net.Graph.N(); i++ {
			a := overlay.PeerID(i)
			for _, b := range rt.w.Net.Graph.Neighbors(a) {
				if b > a && (inRegion(a) || inRegion(b)) {
					candidates = append(candidates, link{a, b})
				}
			}
		}
		for _, l := range candidates {
			if rt.eventRng.Float64() < e.LinkDropFrac {
				rt.w.Net.Graph.RemoveLink(l.a, l.b)
			}
		}
	}
}

// topLocalities returns the `n` most populous locIds (ties to the lower
// id, for determinism).
func (rt *Runtime) topLocalities(n int) map[netmodel.LocID]struct{} {
	census := rt.w.Net.Locator.Census()
	ids := make([]netmodel.LocID, 0, len(census))
	for id := range census {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if census[ids[i]] != census[ids[j]] {
			return census[ids[i]] > census[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	out := make(map[netmodel.LocID]struct{}, n)
	for _, id := range ids[:n] {
		out[id] = struct{}{}
	}
	return out
}
