package protocol

// Baselines returns the paper's four compared protocols in figure order.
func Baselines() []Behavior {
	return []Behavior{Flooding{}, Dicas{}, DicasKeys{}, Locaware{}}
}

// ByName resolves a behaviour by its Name(): exactly the four baselines.
// Every layer that accepts a protocol name — facade, sweep specs, CLIs —
// resolves it here.
func ByName(name string) (Behavior, bool) {
	for _, b := range Baselines() {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}
