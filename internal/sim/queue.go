package sim

// heapArity is the branching factor of the engine's event heap. A 4-ary
// heap is half as deep as a binary one, and the four children of a node
// sit next to each other in the backing slice, so a sift-down compares
// them from one or two cache lines.
const heapArity = 4

// eventHeap is the engine's pending-event queue: a d-ary min-heap over
// (At, seq). ev.index is the node's slot, which makes removal of an
// arbitrary pending node (Cancel) O(log n). Because seq is unique the
// order is total, so every correct priority queue pops the same sequence.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(ev, len(*h)-1)
}

// pop removes and returns the minimum node; the heap must not be empty.
func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.down(last, 0)
	}
	top.index = -1
	return top
}

// remove deletes a pending node from its slot.
func (h *eventHeap) remove(ev *Event) {
	q := *h
	i := ev.index
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if i == n {
		return
	}
	if eventLess(last, ev) {
		h.up(last, i)
	} else {
		h.down(last, i)
	}
}

// up places ev at slot i or above, moving larger ancestors down.
func (h eventHeap) up(ev *Event, i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		pe := h[p]
		if !eventLess(ev, pe) {
			break
		}
		h[i] = pe
		pe.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down places ev at slot i or below, moving smaller children up.
func (h eventHeap) down(ev *Event, i int) {
	n := len(h)
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := min(c+heapArity, n)
		m := c
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}
