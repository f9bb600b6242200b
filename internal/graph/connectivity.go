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
