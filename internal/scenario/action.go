package scenario

import (
	"fmt"
	"math/rand"

	"qolsr/internal/geom"
	"qolsr/internal/sim"
)

// Action is one timeline effect on the running network. Implementations are
// value types; the engine applies them at their phase time with access to
// the network, the current node positions and the run's event RNG, so an
// action's outcome is a pure function of (scenario, seed, run). Every action
// perturbs routing, so every phase opens a reconvergence window: the engine
// records its fire time and later reports how long the protocol took to
// re-deliver every connected probe flow.
type Action interface {
	// Describe returns the action's stable string form, used by the JSON
	// encoder and the tables.
	Describe() string

	validate() error
	apply(env *actionEnv) error
}

// actionEnv is what an action may touch when it fires.
type actionEnv struct {
	nw    *sim.Network
	field geom.Field
	rng   *rand.Rand
	// lossy is the run's lossy medium, nil on the ideal medium (the
	// loss-shaping actions require it; Validate enforces this before the
	// run starts).
	lossy *sim.LossyMedium
	// positions returns the node positions at fire time (mobility-aware).
	positions func() []geom.Point
}

// upLinks lists the currently usable physical links.
func (env *actionEnv) upLinks() [][2]int32 {
	var links [][2]int32
	g := env.nw.Phys
	for a := int32(0); int(a) < g.N(); a++ {
		for _, arc := range g.Arcs(a) {
			if a < arc.To && env.nw.LinkUp(a, arc.To) {
				links = append(links, [2]int32{a, arc.To})
			}
		}
	}
	return links
}

// failShuffled fails count(n) of the n currently-up links (at most n): the
// first ones after one shuffle drawn from the run's event RNG.
func (env *actionEnv) failShuffled(count func(up int) int) error {
	links := env.upLinks()
	if len(links) == 0 {
		return nil
	}
	k := min(count(len(links)), len(links))
	env.rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links[:k] {
		if err := env.nw.FailLink(l[0], l[1]); err != nil {
			return err
		}
	}
	return nil
}

// FailLink takes one named physical link down.
type FailLink struct{ A, B int32 }

// Describe implements Action.
func (f FailLink) Describe() string { return fmt.Sprintf("fail-link %d-%d", f.A, f.B) }

func (f FailLink) validate() error { return validPair("fail-link", f.A, f.B) }

// validPair checks that the action named what names two distinct nodes.
func validPair(what string, a, b int32) error {
	if a == b || a < 0 || b < 0 {
		return fmt.Errorf("%s needs two distinct node indices, got %d-%d", what, a, b)
	}
	return nil
}

func (f FailLink) apply(env *actionEnv) error { return env.nw.FailLink(f.A, f.B) }

// RestoreLink brings one named physical link back.
type RestoreLink struct{ A, B int32 }

// Describe implements Action.
func (r RestoreLink) Describe() string { return fmt.Sprintf("restore-link %d-%d", r.A, r.B) }

func (r RestoreLink) validate() error { return validPair("restore-link", r.A, r.B) }

func (r RestoreLink) apply(env *actionEnv) error { return env.nw.RestoreLink(r.A, r.B) }

// FailFraction fails a uniformly random fraction of the currently-up links,
// drawn from the run's event RNG — the churn-storm primitive.
type FailFraction struct {
	// Fraction of up links to fail, in (0,1].
	Fraction float64
}

// Describe implements Action.
func (f FailFraction) Describe() string { return fmt.Sprintf("fail-fraction %.2f", f.Fraction) }

func (f FailFraction) validate() error {
	if !(f.Fraction > 0) || f.Fraction > 1 {
		return fmt.Errorf("fail-fraction %g outside (0,1]", f.Fraction)
	}
	return nil
}

func (f FailFraction) apply(env *actionEnv) error {
	return env.failShuffled(func(up int) int { return max(int(float64(up)*f.Fraction+0.5), 1) })
}

// FailRandom fails a fixed number of uniformly random up links, drawn from
// the run's event RNG — the single-link-flap primitive.
type FailRandom struct {
	// Count is the number of links to fail (clamped to the up links).
	Count int
}

// Describe implements Action.
func (f FailRandom) Describe() string { return fmt.Sprintf("fail-random %d", f.Count) }

func (f FailRandom) validate() error {
	if f.Count < 1 {
		return fmt.Errorf("fail-random needs a positive count, got %d", f.Count)
	}
	return nil
}

func (f FailRandom) apply(env *actionEnv) error {
	return env.failShuffled(func(int) int { return f.Count })
}

// RestoreAll brings every failed link back — the heal primitive.
type RestoreAll struct{}

// Describe implements Action.
func (RestoreAll) Describe() string { return "restore-all" }

func (RestoreAll) validate() error { return nil }

func (RestoreAll) apply(env *actionEnv) error {
	// Clear the down-set wholesale rather than iterating current edges:
	// under mobility a failed pair can be momentarily out of range, and
	// it must come back up when the geometry re-forms the link.
	env.nw.RestoreAllLinks()
	return nil
}

// Partition fails every link crossing the field's vertical midline at the
// node positions current when the action fires, splitting the network into
// two halves. Heal with RestoreAll.
type Partition struct{}

// Describe implements Action.
func (Partition) Describe() string { return "partition" }

func (Partition) validate() error { return nil }

func (p Partition) apply(env *actionEnv) error {
	pos := env.positions()
	mid := env.field.Width / 2
	g := env.nw.Phys
	for a := int32(0); int(a) < g.N(); a++ {
		for _, arc := range g.Arcs(a) {
			if a >= arc.To {
				continue
			}
			if (pos[a].X < mid) != (pos[arc.To].X < mid) {
				if err := env.nw.FailLink(a, arc.To); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SetLoss replaces the lossy medium's base packet-error rate mid-run — the
// radio-degradation primitive (weather, interference, jamming). Requires
// the lossy medium.
type SetLoss struct {
	// Loss is the new base packet-error rate, in [0, 1).
	Loss float64
}

// Describe implements Action.
func (s SetLoss) Describe() string { return fmt.Sprintf("set-loss %.2f", s.Loss) }

func (s SetLoss) validate() error {
	if s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("set-loss %g outside [0,1)", s.Loss)
	}
	return nil
}

func (s SetLoss) apply(env *actionEnv) error {
	if env.lossy == nil {
		return fmt.Errorf("set-loss requires the lossy medium")
	}
	env.lossy.SetBaseLoss(s.Loss)
	return nil
}

// DegradeLink overrides the packet-error rate of one physical link — a
// single fading link while the rest of the radio stays healthy. A negative
// rate clears the override. Requires the lossy medium.
type DegradeLink struct {
	A, B int32
	// Loss is the link's packet-error rate in [0, 1); negative clears the
	// override (the link reverts to the base rate).
	Loss float64
}

// Describe implements Action.
func (d DegradeLink) Describe() string {
	return fmt.Sprintf("degrade-link %d-%d %.2f", d.A, d.B, d.Loss)
}

func (d DegradeLink) validate() error {
	if err := validPair("degrade-link", d.A, d.B); err != nil {
		return err
	}
	if d.Loss >= 1 {
		return fmt.Errorf("degrade-link loss %g outside [0,1) (negative clears)", d.Loss)
	}
	return nil
}

func (d DegradeLink) apply(env *actionEnv) error {
	if env.lossy == nil {
		return fmt.Errorf("degrade-link requires the lossy medium")
	}
	if err := env.nw.CheckLink(d.A, d.B); err != nil {
		return fmt.Errorf("degrade-link: %w", err)
	}
	env.lossy.SetLinkLoss(d.A, d.B, d.Loss)
	return nil
}

// Compile-time interface compliance checks.
var (
	_ Action = FailLink{}
	_ Action = RestoreLink{}
	_ Action = FailFraction{}
	_ Action = FailRandom{}
	_ Action = RestoreAll{}
	_ Action = Partition{}
	_ Action = SetLoss{}
	_ Action = DegradeLink{}
)
