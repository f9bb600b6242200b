package route

import (
	"fmt"

	"qolsr/internal/graph"
)

// DirectedAdvertised is the stricter reading of TC-based reachability used
// in the paper's Fig. 4 discussion: node n advertising neighbor a creates a
// usable directed hop n→a, and a packet reaches its destination when it
// arrives at any node that is a *physical* neighbor of the destination
// (final local delivery from HELLO knowledge). Under the undirected reading
// the destination's own TC would always advertise its access links,
// masking the pathology the loop-fix rule exists for; under this one, a
// destination whose access nodes are selected by nobody is unreachable —
// exactly "E becomes unreachable since node D is the only access to E: D
// has been selected by no node".
type DirectedAdvertised struct {
	phys *graph.Graph
	out  [][]int32
}

// BuildDirectedAdvertised assembles the directed advertised topology from
// per-node advertised sets.
func BuildDirectedAdvertised(phys *graph.Graph, sets [][]int32) (*DirectedAdvertised, error) {
	if len(sets) != phys.N() {
		return nil, fmt.Errorf("route: %d advertised sets for %d nodes", len(sets), phys.N())
	}
	d := &DirectedAdvertised{phys: phys, out: make([][]int32, phys.N())}
	for x := int32(0); int(x) < phys.N(); x++ {
		for _, a := range sets[x] {
			if _, ok := phys.EdgeBetween(x, a); !ok {
				return nil, fmt.Errorf("route: node %d advertises non-neighbor %d", x, a)
			}
			d.out[x] = append(d.out[x], a)
		}
	}
	return d, nil
}

// reachSet returns the nodes reachable from src over directed advertised
// hops (src included).
func (d *DirectedAdvertised) reachSet(src int32) []bool {
	seen := make([]bool, d.phys.N())
	seen[src] = true
	queue := []int32{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range d.out[x] {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return seen
}

// deliveredFrom reports delivery given src's directed reach set: dst is
// reached directly, or some reached node is a physical neighbor of dst.
func (d *DirectedAdvertised) deliveredFrom(reach []bool, dst int32) bool {
	if reach[dst] {
		return true
	}
	for _, arc := range d.phys.Arcs(dst) {
		if reach[arc.To] {
			return true
		}
	}
	return false
}

// DeliveryRatio evaluates delivery over every ordered pair connected in the
// physical graph and returns the delivered fraction. One directed BFS per
// source, then O(degree) per destination.
func (d *DirectedAdvertised) DeliveryRatio() float64 {
	var delivered, total int
	for s := int32(0); int(s) < d.phys.N(); s++ {
		physReach := graph.Reachable(d.phys, s)
		reach := d.reachSet(s)
		for t := int32(0); int(t) < d.phys.N(); t++ {
			if s == t || !physReach[t] {
				continue
			}
			total++
			if d.deliveredFrom(reach, t) {
				delivered++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(delivered) / float64(total)
}
