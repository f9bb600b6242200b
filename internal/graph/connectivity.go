package graph

// Reachable returns a bitmap of the nodes reachable from src by BFS.
func Reachable(g *Graph, src int32) []bool {
	seen := make([]bool, g.N())
	if g.N() == 0 {
		return seen
	}
	seen[src] = true
	queue := []int32{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, arc := range g.Arcs(x) {
			if !seen[arc.To] {
				seen[arc.To] = true
				queue = append(queue, arc.To)
			}
		}
	}
	return seen
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func Connected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	seen := Reachable(g, 0)
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// HopDistances returns BFS hop counts from src (-1 when unreachable).
func HopDistances(g *Graph, src int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, arc := range g.Arcs(x) {
			if dist[arc.To] == -1 {
				dist[arc.To] = dist[x] + 1
				queue = append(queue, arc.To)
			}
		}
	}
	return dist
}
