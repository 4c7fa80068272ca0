package serve

import (
	"container/list"
	"sync"
)

// hotSet is the in-memory LRU in front of the journal, keyed by store
// content digests. Each entry is the cell's JSON exactly as the store
// journals it, so a hot-set hit serves the same bytes a journal hit
// would. Hits never touch disk or the worker pool. All methods are
// safe for concurrent use.
type hotSet struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	lru   *list.List // front = most recently used
}

type hotItem struct {
	digest string
	data   []byte
}

func newHotSet(capacity int) *hotSet {
	if capacity <= 0 {
		capacity = 4096
	}
	return &hotSet{cap: capacity, items: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cell bytes under digest, promoting them to most
// recently used.
func (h *hotSet) get(digest string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.items[digest]
	if !ok {
		return nil, false
	}
	h.lru.MoveToFront(el)
	return el.Value.(*hotItem).data, true
}

// add inserts or replaces the cell bytes under digest and evicts from
// the cold end past capacity.
func (h *hotSet) add(digest string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.items[digest]; ok {
		el.Value.(*hotItem).data = data
		h.lru.MoveToFront(el)
		return
	}
	h.items[digest] = h.lru.PushFront(&hotItem{digest: digest, data: data})
	for h.lru.Len() > h.cap {
		old := h.lru.Back()
		h.lru.Remove(old)
		delete(h.items, old.Value.(*hotItem).digest)
	}
}

// len returns the live entry count.
func (h *hotSet) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lru.Len()
}
