package graph

import "fmt"

// IndexedMinHeap is a binary min-heap over the integer keys 0..n-1 with
// float64 priorities and O(log n) decrease-key, the classic companion
// structure for Dijkstra. The zero value is not usable; construct with
// NewIndexedMinHeap.
type IndexedMinHeap struct {
	prio []float64 // prio[key] = current priority of key (valid while key is in the heap)
	heap []int     // heap[i] = key at heap slot i
	pos  []int     // pos[key] = slot of key in heap, or -1 when absent
	seen []bool    // seen[key] = key has been pushed at least once (guards Priority)
}

// NewIndexedMinHeap returns an empty heap over keys 0..n-1.
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedMinHeap{
		prio: make([]float64, n),
		heap: make([]int, 0, n),
		pos:  pos,
		seen: make([]bool, n),
	}
}

// Len returns the number of keys currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.heap) }

// Contains reports whether key is currently in the heap.
func (h *IndexedMinHeap) Contains(key int) bool { return h.pos[key] >= 0 }

// Priority returns the priority most recently set for key. It panics for
// a key that has never been pushed since the heap was constructed: the
// backing slot would otherwise read as a stale 0, silently
// indistinguishable from a real zero priority. After a Reset, priorities
// of keys pushed before the reset remain readable (they are "most
// recently set" values, not live heap state).
func (h *IndexedMinHeap) Priority(key int) float64 {
	if !h.seen[key] {
		panic(fmt.Sprintf("graph: Priority(%d) read for a key never pushed", key))
	}
	return h.prio[key]
}

// Push inserts key with the given priority, or lowers/raises its priority
// if already present (a combined insert/update, convenient for Dijkstra's
// relax step).
func (h *IndexedMinHeap) Push(key int, priority float64) {
	h.seen[key] = true
	if h.pos[key] >= 0 {
		old := h.prio[key]
		h.prio[key] = priority
		if priority < old {
			h.siftUp(h.pos[key])
		} else if priority > old {
			h.siftDown(h.pos[key])
		}
		return
	}
	h.prio[key] = priority
	h.pos[key] = len(h.heap)
	h.heap = append(h.heap, key)
	h.siftUp(len(h.heap) - 1)
}

// Reset empties the heap in O(len) so it can be reused for a fresh run
// without reallocating. Keys pushed before the reset keep their last set
// priority readable through Priority.
func (h *IndexedMinHeap) Reset() {
	for _, k := range h.heap {
		h.pos[k] = -1
	}
	h.heap = h.heap[:0]
}

// Pop removes and returns the key with the minimum priority and that
// priority. It must not be called on an empty heap.
func (h *IndexedMinHeap) Pop() (key int, priority float64) {
	key = h.heap[0]
	priority = h.prio[key]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[key] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return key, priority
}

func (h *IndexedMinHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *IndexedMinHeap) less(i, j int) bool {
	pi, pj := h.prio[h.heap[i]], h.prio[h.heap[j]]
	if pi != pj {
		return pi < pj
	}
	// Tie-break on key for fully deterministic pop order.
	return h.heap[i] < h.heap[j]
}

func (h *IndexedMinHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedMinHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
