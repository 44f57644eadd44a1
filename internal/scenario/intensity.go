package scenario

// ScaleIntensity returns a deep copy of the spec with every continuous
// dynamics magnitude scaled by factor f — the parameterised-intensity hook
// behind sweep campaigns that plot metric curves against "how hard the
// network is disturbed". f = 1 reproduces the spec unchanged; f = 0 scales
// every disturbance down to its neutral value; f > 1 amplifies.
//
// Scaling rules, chosen so every factor lands on a valid spec:
//
//   - periodic churn probabilities multiply by f (clamped to 1);
//   - churn-wave / rejoin population fractions multiply by f (clamped to
//     1); an event scaled to zero is dropped;
//   - flash-crowd rate factors and degrade-region latency factors scale
//     their excess over 1 (factor' = 1 + (factor-1)·f), so f = 0 yields the
//     neutral multiplier 1; Zipf exponent overrides scale their excess over
//     1 for f > 0 and vanish entirely at f = 0 (the schema's "keep current
//     exponent"); link-drop fractions multiply by f (clamped to 1);
//   - content-dynamics file counts round to files·f; an event scaled to
//     zero files is dropped; hot-set sizes round the same way;
//   - structural knobs (phase grid, churn cadence, copies-per-file,
//     locality counts) are intensity-independent and pass through.
//
// Events whose scaled parameters no longer change anything (a wave moving
// nobody, a region degradation degrading nothing) are dropped from the
// copy, so the result always passes Validate for any f >= 0. The phase
// timeline itself — names, fractions, per-phase metric windows — is
// preserved exactly, which is what makes intensity sweeps comparable
// phase-by-phase across cells.
func (s *Spec) ScaleIntensity(f float64) *Spec {
	if f < 0 {
		f = 0
	}
	out := s.clone()
	for i := range out.Phases {
		p := &out.Phases[i]
		if p.Churn != nil {
			p.Churn.LeaveProb = clamp01(p.Churn.LeaveProb * f)
			p.Churn.JoinProb = clamp01(p.Churn.JoinProb * f)
		}
		events := p.Events[:0]
		for _, e := range p.Events {
			if scaled, keep := scaleEvent(e, f); keep {
				events = append(events, scaled)
			}
		}
		p.Events = events
	}
	return out
}

// scaleEvent applies the intensity factor to one event, reporting whether
// the scaled event still does anything.
func scaleEvent(e EventSpec, f float64) (EventSpec, bool) {
	switch e.Kind {
	case KindChurnWave, KindRejoin:
		e.Frac = clamp01(e.Frac * f)
		return e, e.Frac > 0
	case KindFlashCrowd:
		e.HotFiles = scaleCount(e.HotFiles, f)
		e.RateFactor = scaleExcess(e.RateFactor, f)
		// ZipfS is an absolute replacement exponent, not a multiplier: its
		// neutral value in the event schema is 0 ("keep the current
		// exponent"), so zero intensity must drop the override entirely —
		// scaling it to the multiplier-neutral 1 would swap a non-uniform
		// base popularity for uniform and contaminate the intensity-0
		// baseline cell. Positive intensities scale the excess over 1, the
		// flattest exponent a crowd event meaningfully sharpens from.
		if f == 0 {
			e.ZipfS = 0
		} else {
			e.ZipfS = scaleExcess(e.ZipfS, f)
		}
		// Parameters scaled to exactly-neutral multipliers still validate
		// (only the all-zero "changes nothing" shape is rejected), so the
		// event survives unless every field was zero to begin with.
		return e, e.HotFiles > 0 || e.RateFactor > 0 || e.ZipfS > 0
	case KindInjectFiles, KindRemoveFiles, KindMigrateProviders:
		e.Files = scaleCount(e.Files, f)
		return e, e.Files > 0
	case KindDegradeRegion:
		e.LatencyFactor = scaleExcess(e.LatencyFactor, f)
		e.LinkDropFrac = clamp01(e.LinkDropFrac * f)
		return e, e.LatencyFactor > 1 || e.LinkDropFrac > 0
	default:
		// calm / restore-region restore neutral state; intensity does not
		// apply.
		return e, true
	}
}

// scaleExcess scales a multiplier's excess over the neutral value 1, so
// intensity 0 lands on "no change". Zero means "keep" in the spec schema
// and passes through.
func scaleExcess(factor, f float64) float64 {
	if factor == 0 {
		return 0
	}
	return 1 + float64((factor-1)*f)
}

// scaleCount rounds a set size to count·f, never below zero.
func scaleCount(n int, f float64) int {
	if n <= 0 {
		return n
	}
	scaled := int(float64(float64(n)*f) + 0.5)
	if scaled < 0 {
		return 0
	}
	return scaled
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clone deep-copies the spec: phases, churn blocks and event slices are
// fresh allocations, so scaling one copy never mutates the registry's.
func (s *Spec) clone() *Spec {
	out := *s
	out.Phases = make([]PhaseSpec, len(s.Phases))
	for i, p := range s.Phases {
		cp := p
		if p.Churn != nil {
			churn := *p.Churn
			cp.Churn = &churn
		}
		cp.Events = append([]EventSpec(nil), p.Events...)
		out.Phases[i] = cp
	}
	return &out
}
