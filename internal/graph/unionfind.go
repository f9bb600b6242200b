package graph

// UnionFind is a disjoint-set forest with union by size and path halving,
// the component structure of the concave first-hop sweep (firstHopsConcave).
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

// Union merges the sets of a and b. It returns the merged set's root and the
// root it absorbed, or -1 when a and b already shared a set.
func (uf *UnionFind) Union(a, b int32) (root, absorbed int32) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra, -1
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return ra, rb
}
