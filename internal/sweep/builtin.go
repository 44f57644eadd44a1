package sweep

import "sort"

// Builtins constructs the built-in campaign registry afresh, in stable
// order (specs are mutable data; every caller gets its own copy). The
// campaigns regenerate the paper's figure grids — every figure in the
// evaluation plots a metric against a swept parameter for the compared
// protocols (overlay size, response-index capacity, TTL, dynamics
// intensity) — and its parameter studies: landmark count (§5.1), Bloom
// filter size and Dicas group count M. A study is a campaign; nothing else
// in the repo loops over parameter values.
func Builtins() []*Spec {
	return []*Spec{
		{
			Name:        "size-sweep",
			Description: "success/traffic/distance vs overlay size, 250→2000 peers, all baselines",
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Axes: []Axis{
				{Param: "peers", Values: []float64{250, 500, 1000, 2000}},
			},
		},
		{
			Name:        "cache-sweep",
			Description: "response-index capacity sweep (paper: 50 filenames) over the caching protocols",
			Protocols:   []string{"Dicas", "Dicas-Keys", "Locaware"},
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: "cache-filenames", Values: []float64{10, 25, 50, 100, 200}},
			},
		},
		{
			Name:        "ttl-sweep",
			Description: "query TTL sweep (paper: 7) — traffic/success trade-off, all baselines",
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: "ttl", Values: []float64{3, 5, 7, 9}},
			},
		},
		{
			Name:        "churn-sweep",
			Description: "steady-churn intensity sweep: 0 (static) → 2x the default leave/rejoin pressure",
			Protocols:   []string{"Dicas", "Locaware"},
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Scenario:    "steady-churn",
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: ParamIntensity, Values: []float64{0, 0.5, 1, 2}},
			},
		},
		{
			Name:        "flashcrowd-sweep",
			Description: "flash-crowd intensity sweep: how hard can the crowd rush before caching stops helping",
			Protocols:   []string{"Flooding", "Locaware"},
			Warmup:      300,
			Queries:     1200,
			Trials:      3,
			Scenario:    "flashcrowd",
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: ParamIntensity, Values: []float64{0.5, 1, 2}},
			},
		},
		{
			Name:        "landmark-sweep",
			Description: "landmark count (paper §5.1: 4 → 24 locIds; 5 scatter 1000 peers too thinly), Locaware",
			Protocols:   []string{"Locaware"},
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Axes: []Axis{
				{Param: "landmarks", Values: []float64{3, 4, 5}},
			},
			Figures: []string{"success", "rtt", "sameloc"},
		},
		{
			Name:        "bloom-sweep",
			Description: "Bloom filter size (paper: 1200 bits for 50 filenames × 3 keywords): false positives vs gossip cost, Locaware",
			Protocols:   []string{"Locaware"},
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: "bloom-bits", Values: []float64{300, 600, 1200, 2400}},
			},
			Figures: []string{"success", "msgs", "ctlkbits"},
		},
		{
			Name:        "group-sweep",
			Description: "Dicas group count M: caching density vs routing selectivity over the caching protocols",
			Protocols:   []string{"Dicas", "Dicas-Keys", "Locaware"},
			Warmup:      300,
			Queries:     1000,
			Trials:      3,
			Base:        map[string]float64{"peers": 500},
			Axes: []Axis{
				{Param: "groups", Values: []float64{2, 4, 8, 16}},
			},
			Figures: []string{"success", "msgs", "cached"},
		},
	}
}

// Lookup resolves a built-in campaign by name.
func Lookup(name string) (*Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists the built-in campaign names, sorted.
func Names() []string {
	bs := Builtins()
	names := make([]string, len(bs))
	for i, s := range bs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
