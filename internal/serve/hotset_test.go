package serve

import (
	"fmt"
	"testing"
)

func TestHotSetLRUEviction(t *testing.T) {
	h := newHotSet(3)
	for i := 0; i < 3; i++ {
		h.add(fmt.Sprintf("d%d", i), hotEntry{data: []byte{byte(i)}})
	}
	// Touch d0 so d1 becomes the cold end.
	if _, ok := h.get("d0"); !ok {
		t.Fatal("d0 missing before eviction")
	}
	h.add("d3", hotEntry{data: []byte{3}})
	if _, ok := h.get("d1"); ok {
		t.Fatal("d1 should have been evicted as least recently used")
	}
	for _, d := range []string{"d0", "d2", "d3"} {
		if _, ok := h.get(d); !ok {
			t.Fatalf("%s missing after eviction", d)
		}
	}
	if h.len() != 3 {
		t.Fatalf("len = %d, want 3", h.len())
	}
}

func TestHotSetReplaceSemantics(t *testing.T) {
	// A second add under a digest replaces its bytes and view in place
	// and makes it most recently used; the entry count does not grow.
	h := newHotSet(2)
	h.add("a", hotEntry{data: []byte("old"), view: cellView{footprint: 1}})
	h.add("b", hotEntry{data: []byte("b")})
	h.add("a", hotEntry{data: []byte("new"), view: cellView{footprint: 2}})
	if e, ok := h.get("a"); !ok || string(e.data) != "new" || e.view.footprint != 2 {
		t.Fatalf("replaced entry = %q, footprint %d (present %v), want \"new\", 2", e.data, e.view.footprint, ok)
	}
	if h.len() != 2 {
		t.Fatalf("len = %d after replace, want 2", h.len())
	}
	// The replace promoted a, so b is the cold end.
	h.add("c", hotEntry{data: []byte("c")})
	if _, ok := h.get("b"); ok {
		t.Fatal("b survived eviction; the replace did not promote a")
	}
	if _, ok := h.get("a"); !ok {
		t.Fatal("a evicted after its replace promoted it")
	}
}

func TestHotSetDefaults(t *testing.T) {
	if got := newHotSet(0).cap; got != 4096 {
		t.Fatalf("default capacity = %d, want 4096", got)
	}
	if got := newHotSet(-5).cap; got != 4096 {
		t.Fatalf("negative capacity = %d, want 4096", got)
	}
	h := newHotSet(2)
	if _, ok := h.get("absent"); ok {
		t.Fatal("empty hot set reported a hit")
	}
}
