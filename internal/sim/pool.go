package sim

// Pool recycles values of one type. Get pops the LIFO free list, or carves
// a zero T from a 64-value block when the list is empty, so growth costs
// one allocation per block and fresh values sit contiguously; Put pushes a
// value back. A full block is abandoned to its outstanding pointers, so
// every pointer handed out stays valid. The zero value is ready to use.
//
// A Pool is not synchronised: it belongs to one simulation, whose events
// all fire on the goroutine that runs its engine. The repo's one pooling
// rule: the sender acquires a value, its last user Puts it back (an event
// Puts itself when it fires).
type Pool[T any] struct {
	free  []*T
	block []T
}

// poolBlockLen is the number of values carved from one block.
const poolBlockLen = 64

// Get returns a recycled value, in the state it was Put in, or a zero one.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	if len(p.block) == cap(p.block) {
		p.block = make([]T, 0, poolBlockLen)
	}
	p.block = p.block[:len(p.block)+1]
	return &p.block[len(p.block)-1]
}

// Carve cuts an empty window of capacity n from the block's unused rest,
// replacing a block that runs short with one of poolBlockLen windows, so
// windows sit contiguously the way a Pool's values do. A window that
// outgrows n reallocates alone instead of clobbering its neighbour.
func Carve[T any](block *[]T, n int) []T {
	if len(*block) < n {
		*block = make([]T, poolBlockLen*n)
	}
	w := (*block)[:0:n]
	*block = (*block)[n:]
	return w
}

// Put makes v available to a later Get.
func (p *Pool[T]) Put(v *T) { p.free = append(p.free, v) }

// Len returns the number of values on the free list.
func (p *Pool[T]) Len() int { return len(p.free) }
