package olsr

import "slices"

// Neighbour-keyed soft state.
//
// Three of a node's tables are keyed by a direct neighbour: its own links,
// the neighbours' HELLO tables and the MPR-selector deadlines. However large
// the field, a node holds about its degree of each — ten, not N — so they all
// use smallTable: keys and values in two contiguous slices kept in ascending
// key order. A probe is a linear scan of a cache line or two, the
// ascending-identifier walk determinism demands everywhere is the plain
// slice walk (no key extraction, no sort, no allocation), and memory is
// O(degree). The simulator and the daemon share this one representation.
//
// TC-learned topology is keyed by origin, not neighbour, and a node hears
// every origin in the field: that table lives in the origin-major store of
// topostore.go.

// smallTable is soft state keyed by neighbour identifier, sorted by key.
type smallTable[T any] struct {
	keys []int64
	vals []T
}

// find returns id's position, or where it would be inserted.
func (t *smallTable[T]) find(id int64) (int, bool) {
	for i, k := range t.keys {
		if k >= id {
			return i, k == id
		}
	}
	return len(t.keys), false
}

// get returns the entry for id, nil when absent. The pointer is valid until
// the table's next put or del.
func (t *smallTable[T]) get(id int64) *T {
	if i, ok := t.find(id); ok {
		return &t.vals[i]
	}
	return nil
}

// has reports presence.
func (t *smallTable[T]) has(id int64) bool {
	_, ok := t.find(id)
	return ok
}

// put stores the entry for id (insert or overwrite) and returns it in place.
func (t *smallTable[T]) put(id int64, v T) *T {
	i, ok := t.find(id)
	if !ok {
		var zero T
		t.keys = append(t.keys, 0)
		t.vals = append(t.vals, zero)
		copy(t.keys[i+1:], t.keys[i:])
		copy(t.vals[i+1:], t.vals[i:])
		t.keys[i] = id
	}
	t.vals[i] = v
	return &t.vals[i]
}

// del drops the entry for id; slices.Delete zeroes the vacated tail slot,
// releasing what it referenced.
func (t *smallTable[T]) del(id int64) {
	if i, ok := t.find(id); ok {
		t.keys, t.vals = slices.Delete(t.keys, i, i+1), slices.Delete(t.vals, i, i+1)
	}
}

// len returns the entry count.
func (t *smallTable[T]) len() int { return len(t.keys) }

// each visits every entry in ascending id order. The callback may mutate the
// entry or del the visited id — after which v refers to the next entry, so
// read what you need from it first — and nothing else.
func (t *smallTable[T]) each(f func(id int64, v *T)) {
	for i := 0; i < len(t.keys); {
		k := t.keys[i]
		f(k, &t.vals[i])
		if i < len(t.keys) && t.keys[i] == k {
			i++
		}
	}
}
