package sim

import "container/heap"

// heapQueue is the original container/heap implementation — the reference
// ordering the calendar queue is differential-tested against.
// ev.index is the heap slot.
type heapQueue struct {
	h eventHeap
}

type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popLE(until Time) *Event {
	if len(q.h) == 0 || q.h[0].At > until {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) len() int { return len(q.h) }
