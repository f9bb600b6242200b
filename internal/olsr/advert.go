package olsr

import (
	"cmp"
	"slices"
)

// Interned advertisement content.
//
// The advertised link block of a HELLO or TC-family message is the single
// source of truth for the sender's links, and in a converged network the same
// block is re-announced period after period and ingested by every receiver.
// The node state therefore stores the block itself — a sorted []LinkInfo
// shared read-only between the emitter, every in-flight message and every
// receiver's table — instead of exploding it into one map[int64]float64 per
// (receiver, origin) pair. At N nodes that interning removes O(N²) small maps
// from the heap, replaces per-receiver map builds with a pointer comparison
// in the steady state, and turns content diffs into linear merges of two
// sorted slices.
//
// Invariant: every adv slice held in node state is normalised — strictly
// ascending Neighbor order with no duplicates. Wire decoders accept arbitrary
// blocks, so ingestion normalises (see normalizeAdv); emitters already
// produce sorted blocks, for which normalisation is a zero-copy check.

// advSorted reports whether links is strictly ascending by Neighbor.
func advSorted(links []LinkInfo) bool {
	for i := 1; i < len(links); i++ {
		if links[i-1].Neighbor >= links[i].Neighbor {
			return false
		}
	}
	return true
}

// normalizeAdv returns links in normalised form. Blocks that are already
// strictly ascending — every block a well-formed emitter produces — are
// returned as-is, aliasing the input so receivers share the sender's storage.
// Anything else is copied, stably sorted and deduplicated with last-writer
// precedence, matching the map-overwrite semantics hostile re-ordered or
// duplicated blocks historically got.
func normalizeAdv(links []LinkInfo) []LinkInfo {
	if advSorted(links) {
		return links
	}
	sorted := append([]LinkInfo(nil), links...)
	slices.SortStableFunc(sorted, func(a, b LinkInfo) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	out := sorted[:0]
	for _, l := range sorted {
		if n := len(out); n > 0 && out[n-1].Neighbor == l.Neighbor {
			out[n-1] = l // later entry wins, as map insertion did
			continue
		}
		out = append(out, l)
	}
	return out
}

// sameAdv reports whether two normalised blocks carry identical content,
// probing pointer identity first: in the steady state a receiver compares the
// very slice it retained from the previous announcement against the same
// shared slice carried by the next one, so the common case is two header
// compares, not an element scan.
func sameAdv(a, b []LinkInfo) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// sharedAdv reports whether two non-empty blocks alias the same storage —
// the interned-epoch fast path, counted separately from content equality.
func sharedAdv(a, b []LinkInfo) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// applyDeltaToAdv merges a delta into a normalised block, producing a fresh
// normalised block: Add upserts (authoritative even when the same neighbor is
// also listed in Del, matching the historical delete-then-add map order), Del
// removes. add must be normalised and del sorted.
func applyDeltaToAdv(cur, add []LinkInfo, del []int64) []LinkInfo {
	out := make([]LinkInfo, 0, len(cur)+len(add))
	i, j := 0, 0
	inDel := func(id int64) bool {
		_, ok := slices.BinarySearch(del, id)
		return ok
	}
	for i < len(cur) && j < len(add) {
		switch {
		case cur[i].Neighbor == add[j].Neighbor:
			out = append(out, add[j])
			i++
			j++
		case cur[i].Neighbor < add[j].Neighbor:
			if !inDel(cur[i].Neighbor) {
				out = append(out, cur[i])
			}
			i++
		default:
			out = append(out, add[j])
			j++
		}
	}
	for ; i < len(cur); i++ {
		if !inDel(cur[i].Neighbor) {
			out = append(out, cur[i])
		}
	}
	out = append(out, add[j:]...)
	return out
}

// normalizeDel returns del sorted and deduplicated, aliasing the input when
// it already is — the emitter's diffAdv always produces sorted unique lists.
func normalizeDel(del []int64) []int64 {
	sorted := true
	for i := 1; i < len(del); i++ {
		if del[i-1] >= del[i] {
			sorted = false
			break
		}
	}
	if sorted {
		return del
	}
	out := append([]int64(nil), del...)
	slices.Sort(out)
	return slices.Compact(out)
}
