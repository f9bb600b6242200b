package graph

// UnionFind is a disjoint-set forest with union by size and path halving,
// used by the concave first-hop sweep (descending-threshold connectivity).
// The zero value is an empty forest; Reset sizes it.
type UnionFind struct {
	parent []int32
	size   []int32
}

// Reset reinitialises the forest to n singletons, reusing storage when
// possible.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent = make([]int32, n)
		uf.size = make([]int32, n)
	}
	uf.parent = uf.parent[:n]
	uf.size = uf.size[:n]
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (uf *UnionFind) Union(a, b int32) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// Connected reports whether a and b are in the same set.
func (uf *UnionFind) Connected(a, b int32) bool {
	return uf.Find(a) == uf.Find(b)
}
