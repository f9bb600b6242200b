package scenario

import (
	"fmt"
	"strings"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/geom"
	"qolsr/internal/traffic"
)

// Definition is one named, parameterisable built-in scenario.
type Definition struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build materialises the scenario for one advertised-set selector.
	Build func(selector string) Scenario
}

// builtinField keeps the live-stack simulations affordable, matching the
// control-traffic experiment's deployment area.
func builtinField() geom.Field { return geom.Field{Width: 600, Height: 600} }

func builtinDeployment(degree float64) *geom.Deployment {
	return &geom.Deployment{Field: builtinField(), Radius: 100, Degree: degree}
}

func waypoint(minSpeed, maxSpeed float64) *Mobility {
	return &Mobility{
		Model: geom.Waypoint{
			Field:    builtinField(),
			MinSpeed: minSpeed,
			MaxSpeed: maxSpeed,
			Pause:    2 * time.Second,
		},
	}
}

// BuiltIn returns the built-in scenario registry, in listing order.
func BuiltIn() []Definition {
	return []Definition{
		{
			Name:        "static-baseline",
			Description: "static Poisson deployment, no dynamics — the paper's regime on the live stack",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "static-baseline",
					Description: "static Poisson deployment, no dynamics",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel},
					Duration:    90 * time.Second,
				}
			},
		},
		{
			Name:        "single-link-flap",
			Description: "one random link fails mid-run and comes back — soft-state expiry and reroute",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "single-link-flap",
					Description: "one random link fails at 45s, restores at 75s",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel},
					Duration:    120 * time.Second,
					Phases: []Phase{
						{At: 45 * time.Second, Action: FailRandom{Count: 1}},
						{At: 75 * time.Second, Action: RestoreAll{}},
					},
				}
			},
		},
		{
			Name:        "partition-heal",
			Description: "the field splits along its midline and later heals — state expiry and re-merge",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "partition-heal",
					Description: "partition at 40s across the field midline, heal at 80s",
					Topology:    Topology{Deployment: builtinDeployment(12)},
					Protocol:    Protocol{Selector: sel},
					Duration:    120 * time.Second,
					Phases: []Phase{
						{At: 40 * time.Second, Action: Partition{}},
						{At: 80 * time.Second, Action: RestoreAll{}},
					},
				}
			},
		},
		{
			Name:        "random-waypoint-sparse",
			Description: "sparse random-waypoint mobility — link churn at low density",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "random-waypoint-sparse",
					Description: "random waypoint, 1-5 units/s, target degree 6",
					Topology:    Topology{Deployment: builtinDeployment(6)},
					Protocol:    Protocol{Selector: sel},
					Mobility:    waypoint(1, 5),
					Duration:    120 * time.Second,
				}
			},
		},
		{
			Name:        "random-waypoint-dense",
			Description: "dense random-waypoint mobility — link churn with redundant paths",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "random-waypoint-dense",
					Description: "random waypoint, 1-5 units/s, target degree 14",
					Topology:    Topology{Deployment: builtinDeployment(14)},
					Protocol:    Protocol{Selector: sel},
					Mobility:    waypoint(1, 5),
					Duration:    120 * time.Second,
				}
			},
		},
		{
			Name:        "lossy-baseline",
			Description: "static deployment over the lossy radio — measured-ETX link quality instead of oracle weights",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "lossy-baseline",
					Description: "lossy radio (10% base loss + distance loss), measured link quality",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel, MeasuredQoS: true},
					Medium:      Medium{Kind: "lossy", Loss: 0.1, DistanceLoss: 0.2},
					Duration:    120 * time.Second,
				}
			},
		},
		{
			Name:        "lossy-degrade",
			Description: "the radio degrades mid-run and recovers — measured link quality tracks the loss change",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "lossy-degrade",
					Description: "base loss 5%, degraded to 35% at 60s, restored at 100s",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel, MeasuredQoS: true},
					Medium:      Medium{Kind: "lossy", Loss: 0.05},
					Duration:    150 * time.Second,
					Phases: []Phase{
						{At: 60 * time.Second, Action: SetLoss{Loss: 0.35}},
						{At: 100 * time.Second, Action: SetLoss{Loss: 0.05}},
					},
				}
			},
		},
		{
			Name:        "load-ramp",
			Description: "CBR offered load steps up in three waves over the lossy radio — admission and QoS violation under growing load",
			Build: func(sel string) Scenario {
				// Each wave adds flows at double the previous per-flow
				// rate; the delay ceiling is what the queues eventually
				// break.
				ceil := traffic.Requirements{MaxDelay: 60 * time.Millisecond}
				return Scenario{
					Name:        "load-ramp",
					Description: "three CBR waves (16/32/64 kB/s per flow) joining at 30s/60s/90s, 60ms delay ceiling",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel},
					Medium:      Medium{Kind: "lossy", Loss: 0.02},
					Duration:    120 * time.Second,
					Traffic: Traffic{Mix: []traffic.Spec{
						{Class: traffic.ClassCBR, Count: 6, RateBps: 16384, Start: 30 * time.Second, QoS: ceil},
						{Class: traffic.ClassCBR, Count: 6, RateBps: 32768, Start: 60 * time.Second, QoS: ceil},
						{Class: traffic.ClassCBR, Count: 6, RateBps: 65536, Start: 90 * time.Second, QoS: ceil},
					}},
				}
			},
		},
		{
			Name:        "video-vs-cbr",
			Description: "bursty video flows with delay+jitter bounds compete with CBR — per-class admission and violation metrics",
			Build: func(sel string) Scenario {
				return Scenario{
					Name:        "video-vs-cbr",
					Description: "8 on-off video flows (24 kB/s, 80ms/15ms bounds, bandwidth floor 2) vs 8 CBR flows (12 kB/s, 60ms ceiling)",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel},
					Medium:      Medium{Kind: "lossy", Loss: 0.05},
					Duration:    120 * time.Second,
					Traffic: Traffic{Mix: []traffic.Spec{
						{Class: traffic.ClassVideo, Count: 8, RateBps: 24576, QoS: traffic.Requirements{
							MinBandwidth: 2, MaxDelay: 80 * time.Millisecond, MaxJitter: 15 * time.Millisecond}},
						{Class: traffic.ClassCBR, Count: 8, RateBps: 12288, QoS: traffic.Requirements{
							MaxDelay: 60 * time.Millisecond}},
					}},
				}
			},
		},
		{
			Name:        "churn-storm",
			Description: "waves of mass link failure and healing — repeated reconvergence under stress",
			Build: func(sel string) Scenario {
				sc := Scenario{
					Name:        "churn-storm",
					Description: "six waves: 10% of links fail, heal 5s later",
					Topology:    Topology{Deployment: builtinDeployment(10)},
					Protocol:    Protocol{Selector: sel},
					Duration:    150 * time.Second,
				}
				for k := 0; k < 6; k++ {
					at := time.Duration(30+10*k) * time.Second
					sc.Phases = append(sc.Phases,
						Phase{At: at, Action: FailFraction{Fraction: 0.1}},
						Phase{At: at + 5*time.Second, Action: RestoreAll{}},
					)
				}
				return sc
			},
		},
	}
}

// Names lists the built-in scenario names in listing order.
func Names() []string {
	defs := BuiltIn()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// ByName materialises a built-in scenario for one advertised-set selector
// ("fnbp", "topofilter", "qolsr" or "full"; empty means "fnbp"). The result
// is fully defaulted and valid.
func ByName(name, selector string) (Scenario, error) {
	if selector == "" {
		selector = "fnbp"
	}
	if _, err := core.ByName(selector); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	for _, d := range BuiltIn() {
		if d.Name == name {
			return d.Build(selector).WithDefaults(), nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}
