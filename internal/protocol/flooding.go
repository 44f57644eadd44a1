package protocol

import (
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/overlay"
)

// Flooding is the blind Gnutella baseline: every query is forwarded to all
// neighbours (except the sender) until TTL expires, with no index caching
// and no location awareness. It anchors the traffic comparison of Fig. 3
// and the success-rate ceiling of Fig. 4.
type Flooding struct{ blind }

var _ Behavior = Flooding{}

// blind holds the three rules the location-blind baselines share: no
// Bloom filters, no answering-side state, and the first advertised
// provider as the download source. Flooding and Dicas embed it; Dicas-Keys
// inherits it through Dicas.
type blind struct{}

// UsesBloom implements Behavior.
func (blind) UsesBloom() bool { return false }

// OnAnswer implements Behavior: no answering-side state.
func (blind) OnAnswer(*Network, *Node, *QueryMsg, keywords.Filename) {}

// SelectProvider implements Behavior: take the first advertised provider —
// a protocol blind to location has no basis for preferring one copy over
// another.
func (blind) SelectProvider(_ *Network, _ *Node, provs []cache.Provider) (cache.Provider, bool) {
	if len(provs) == 0 {
		return cache.Provider{}, false
	}
	return provs[0], true
}

// Name implements Behavior.
func (Flooding) Name() string { return "Flooding" }

// CacheConfig implements Behavior. Flooding performs no index caching; the
// cache holds one filename and is never written.
func (Flooding) CacheConfig(base cache.Config) cache.Config {
	base.MaxFilenames = 1
	return base
}

// Forward implements Behavior: every candidate.
func (Flooding) Forward(net *Network, _ overlay.PeerID, _ *QueryMsg, elig []overlay.PeerID) []overlay.PeerID {
	net.forwarding.FloodAll += uint64(len(elig))
	return elig
}

// CacheResponse implements Behavior: flooding caches nothing.
func (Flooding) CacheResponse(*Network, *Node, *ResponseMsg) {}
