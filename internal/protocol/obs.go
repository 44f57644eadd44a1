package protocol

// PoolSizes reports the free-list length of every pooled object type — the
// end-of-run pool occupancy folded into protocol_pool_free. It allocates;
// snapshot paths only.
func (net *Network) PoolSizes() map[string]uint64 {
	return map[string]uint64{
		"pending":       uint64(net.pqPool.Len()),
		"query-msg":     uint64(net.msgPool.Len()),
		"response-msg":  uint64(net.respPool.Len()),
		"bloom-install": uint64(net.biPool.Len()),
	}
}
