package sim

import "fmt"

// Link churn support: the medium can take physical links down and bring
// them back, so tests and experiments can watch the protocol expire state
// and reconverge — the MANET behaviour OLSR's soft-state timers exist for.

// FailLink takes the physical link {a,b} down: no further deliveries cross
// it and the endpoints stop measuring it, so their neighbor entries expire
// after the hold time.
func (nw *Network) FailLink(a, b int32) error {
	if err := nw.CheckLink(a, b); err != nil {
		return err
	}
	if nw.down == nil {
		nw.down = make(map[[2]int32]bool)
	}
	nw.down[linkKey(a, b)] = true
	nw.linkGen++
	return nil
}

// RestoreLink brings a failed link back.
func (nw *Network) RestoreLink(a, b int32) error {
	if err := nw.CheckLink(a, b); err != nil {
		return err
	}
	delete(nw.down, linkKey(a, b))
	nw.linkGen++
	return nil
}

// CheckLink validates that {a, b} names an existing physical link, in
// either endpoint order — the shared guard for everything that targets a
// link (churn, medium degradation).
func (nw *Network) CheckLink(a, b int32) error {
	if n := int32(nw.Phys.N()); a < 0 || b < 0 || a >= n || b >= n {
		return fmt.Errorf("sim: node index out of range in link %d-%d (%d nodes)", a, b, n)
	}
	if _, ok := nw.Phys.EdgeBetween(a, b); !ok {
		return fmt.Errorf("sim: no physical link %d-%d", a, b)
	}
	return nil
}

// RestoreAllLinks brings every failed link back, including links whose
// endpoints are momentarily out of range under mobility — the pair is
// usable again whenever the geometry re-forms it. (Restoring only the
// links of the current topology would leave such pairs down forever.)
func (nw *Network) RestoreAllLinks() {
	nw.down = nil
	nw.linkGen++
}

// LinkUp reports whether the physical link {a,b} is currently usable. The
// no-churn fast path skips hashing into the (empty or nil) down set — the
// check runs once per receiver of every frame.
func (nw *Network) LinkUp(a, b int32) bool {
	if len(nw.down) == 0 {
		return true
	}
	return !nw.down[linkKey(a, b)]
}

func linkKey(a, b int32) [2]int32 { return [2]int32{min(a, b), max(a, b)} }
