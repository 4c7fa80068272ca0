package serve

import (
	"container/list"
	"sync"
)

// hotSet is the in-memory LRU in front of the journal, keyed by store
// content digests. Each entry holds the cell's JSON exactly as the
// store journals it, so a hot-set hit serves the same bytes a journal
// hit would, beside the view a response reads of it, built once when
// the cell entered. Hits never touch disk or the worker pool, and
// decode nothing. All methods are safe for concurrent use.
type hotSet struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	lru   *list.List // front = most recently used
}

// hotEntry is one cell in the hot set.
type hotEntry struct {
	data []byte   // the cell's journaled bytes
	view cellView // what a response reads of data
}

type hotItem struct {
	digest string
	hotEntry
}

func newHotSet(capacity int) *hotSet {
	if capacity <= 0 {
		capacity = 4096
	}
	return &hotSet{cap: capacity, items: make(map[string]*list.Element), lru: list.New()}
}

// get returns the entry under digest, promoting it to most recently
// used.
func (h *hotSet) get(digest string) (hotEntry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.items[digest]
	if !ok {
		return hotEntry{}, false
	}
	h.lru.MoveToFront(el)
	return el.Value.(*hotItem).hotEntry, true
}

// add inserts or replaces the entry under digest and evicts from the
// cold end past capacity.
func (h *hotSet) add(digest string, e hotEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.items[digest]; ok {
		el.Value.(*hotItem).hotEntry = e
		h.lru.MoveToFront(el)
		return
	}
	h.items[digest] = h.lru.PushFront(&hotItem{digest: digest, hotEntry: e})
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
