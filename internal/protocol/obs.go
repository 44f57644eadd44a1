package protocol

// PoolSizes reports the free-list length of every pooled object type — the
// end-of-run pool occupancy folded into protocol_pool_free. It allocates;
// snapshot paths only.
func (net *Network) PoolSizes() map[string]int {
	return map[string]int{
		"pending":       net.pqPool.Len(),
		"query-msg":     net.msgPool.Len(),
		"response-msg":  net.respPool.Len(),
		"bloom-install": net.biPool.Len(),
	}
}
