package scenario

import (
	"sort"

	"github.com/p2prepro/locaware/internal/overlay"
)

// builtins constructs the registry afresh (specs are mutable data; every
// caller gets its own copy).
func builtins() []*Spec {
	dc := overlay.DefaultChurn()
	return []*Spec{
		{
			Name:        "baseline",
			Description: "single steady phase with no dynamics (the paper's static workload)",
			Phases:      []PhaseSpec{{Name: "steady", Fraction: 1}},
		},
		{
			Name:        "steady-churn",
			Description: "whole-run independent leave/rejoin churn at the default rates",
			Phases: []PhaseSpec{{
				Name:     "steady",
				Fraction: 1,
				Churn: &ChurnSpec{
					LeaveProb:         dc.LeaveProb,
					JoinProb:          dc.JoinProb,
					MinOnlineFraction: dc.MinOnlineFraction,
				},
			}},
		},
		{
			Name:        "churn-waves",
			Description: "mass departure wave, then a recovery flood of rejoins",
			Phases: []PhaseSpec{
				{Name: "calm", Fraction: 1},
				{Name: "wave", Fraction: 1,
					Churn:  &ChurnSpec{LeaveProb: 0.05, JoinProb: 0.05},
					Events: []EventSpec{{Kind: KindChurnWave, Frac: 0.25}}},
				{Name: "recovery", Fraction: 1,
					Churn:  &ChurnSpec{LeaveProb: 0.01, JoinProb: 0.3},
					Events: []EventSpec{{Kind: KindRejoin, Frac: 1}}},
				{Name: "settled", Fraction: 1},
			},
		},
		{
			Name:        "flashcrowd",
			Description: "a hot file set seizes the popularity head while the query rate spikes 4x",
			Phases: []PhaseSpec{
				{Name: "warm", Fraction: 1},
				{Name: "crowd", Fraction: 1.5,
					Events: []EventSpec{{Kind: KindFlashCrowd, HotFiles: 8, RateFactor: 4, ZipfS: 1.4}}},
				{Name: "decay", Fraction: 1,
					Events: []EventSpec{{Kind: KindFlashCrowd, RateFactor: 2}}},
				{Name: "calm", Fraction: 1,
					Events: []EventSpec{{Kind: KindCalm}}},
			},
		},
		{
			Name:        "content-shift",
			Description: "new releases injected hot, old content withdrawn, providers migrating",
			Phases: []PhaseSpec{
				{Name: "seed", Fraction: 1.5},
				{Name: "release", Fraction: 1.5,
					Events: []EventSpec{{Kind: KindInjectFiles, Files: 40, Copies: 2, Hot: true}}},
				{Name: "churn-out", Fraction: 1,
					Events: []EventSpec{{Kind: KindRemoveFiles, Files: 20}}},
				{Name: "migrated", Fraction: 1,
					Events: []EventSpec{{Kind: KindMigrateProviders, Files: 30}}},
			},
		},
		{
			Name:        "regional-outage",
			Description: "the two most populous localities triple their RTTs and lose 30% of their links",
			Phases: []PhaseSpec{
				{Name: "healthy", Fraction: 1.5},
				{Name: "outage", Fraction: 2,
					Events: []EventSpec{{Kind: KindDegradeRegion, Localities: 2, LatencyFactor: 3, LinkDropFrac: 0.3}}},
				{Name: "restored", Fraction: 1.5,
					Events: []EventSpec{{Kind: KindRestoreRegion}}},
			},
		},
		{
			Name:        "weekend-surge",
			Description: "a diurnal swell: crowds join and query 3x harder, then drain away",
			Phases: []PhaseSpec{
				{Name: "quiet", Fraction: 1.5},
				{Name: "surge", Fraction: 2,
					Churn:  &ChurnSpec{LeaveProb: 0.01, JoinProb: 0.4},
					Events: []EventSpec{{Kind: KindFlashCrowd, HotFiles: 5, RateFactor: 3, ZipfS: 1.2}}},
				{Name: "cooldown", Fraction: 1.5,
					Churn:  &ChurnSpec{LeaveProb: 0.04, JoinProb: 0.05},
					Events: []EventSpec{{Kind: KindCalm}}},
			},
		},
	}
}

// Lookup resolves a built-in scenario by name.
func Lookup(name string) (*Spec, bool) {
	for _, s := range builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists the built-in scenario names, sorted.
func Names() []string {
	bs := builtins()
	names := make([]string, len(bs))
	for i, s := range bs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
