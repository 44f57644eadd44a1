// Package naive is the obvious flooding simulator: container/heap for the
// event queue, a plain struct allocated per message, a map per peer for
// duplicate suppression, no pools, no arena, no calendar. It exists as the
// benchmark's baseline — what the optimised engine's queue, arena and
// pools are measured against — and follows the optimised Flooding
// behaviour's forwarding rules (TTL, path-based loop avoidance, duplicate
// drops, holders answer instead of forwarding), so both deliver the same
// query messages for the same overlay and queries. Responses and natural
// replication are left out: once a requester that downloaded a file answers
// a later query, the optimised engine delivers slightly fewer.
package naive

import "container/heap"

// Query is one flooded query: when it arrives, where, and which peers hold
// a matching file (a holder answers and does not forward).
type Query struct {
	At      int64
	Origin  int32
	Holders map[int32]bool
}

// message is one query copy in flight to a peer.
type message struct {
	at    int64
	seq   uint64
	query int
	to    int32
	ttl   int
	path  []int32 // peers visited, origin first, ending with to
}

// queue orders messages by (at, seq): same-instant deliveries are FIFO.
type queue []*message

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*message)) }
func (q *queue) Pop() any {
	old := *q
	m := old[len(old)-1]
	*q = old[:len(old)-1]
	return m
}

// Sim floods queries over a fixed overlay.
type Sim struct {
	// Adj lists each peer's neighbours.
	Adj [][]int32
	// TTL is the hop budget a query starts with.
	TTL int
	// Delay is the delivery delay of one message over link a→b, in the
	// same ticks as Query.At.
	Delay func(a, b int32) int64

	queue queue
	seq   uint64
	seen  []map[int]bool // per peer: queries already received
}

// Run floods the queries and returns the number of messages delivered.
func (s *Sim) Run(queries []Query) uint64 {
	s.seen = make([]map[int]bool, len(s.Adj))
	for i := range s.seen {
		s.seen[i] = make(map[int]bool)
	}
	// Arrivals are processed as they come due, interleaved with message
	// deliveries in time order, like the optimised engine's submit chain.
	next := 0
	var delivered uint64
	for {
		if next < len(queries) && (s.queue.Len() == 0 || queries[next].At <= s.queue[0].at) {
			q := queries[next]
			s.seen[q.Origin][next] = true
			if !q.Holders[q.Origin] {
				s.forward(&message{at: q.At, query: next, to: q.Origin, ttl: s.TTL, path: []int32{q.Origin}}, q.Origin)
			}
			next++
			continue
		}
		if s.queue.Len() == 0 {
			return delivered
		}
		m := heap.Pop(&s.queue).(*message)
		delivered++
		if s.seen[m.to][m.query] {
			continue // duplicate
		}
		s.seen[m.to][m.query] = true
		if queries[m.query].Holders[m.to] {
			continue // answered here; the response path is not modelled
		}
		s.forward(m, m.path[len(m.path)-2])
	}
}

// forward sends m on to every neighbour except the sender and peers
// already on its path.
func (s *Sim) forward(m *message, from int32) {
	if m.ttl <= 0 {
		return
	}
	for _, nb := range s.Adj[m.to] {
		if nb == from || onPath(m.path, nb) {
			continue
		}
		path := make([]int32, len(m.path)+1)
		copy(path, m.path)
		path[len(m.path)] = nb
		heap.Push(&s.queue, &message{
			at: m.at + s.Delay(m.to, nb), seq: s.seq,
			query: m.query, to: nb, ttl: m.ttl - 1, path: path,
		})
		s.seq++
	}
}

func onPath(path []int32, p int32) bool {
	for _, x := range path {
		if x == p {
			return true
		}
	}
	return false
}
