package qolsr_test

import (
	"reflect"
	"testing"

	"qolsr"
)

// TestOptionSurface is a ratchet on the configuration surface: every
// exported field of the protocol, simulator, scenario and sweep option types
// is a knob some program sets, and each type's count may not exceed the pin
// below. A new knob therefore edits its pin in review, alongside the caller
// that needs it; a knob that loses its last caller becomes a constant and
// lowers the pin.
func TestOptionSurface(t *testing.T) {
	pins := []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeFor[qolsr.ProtocolConfig](), 13},
		{reflect.TypeFor[qolsr.ScenarioProtocol](), 2},
		{reflect.TypeFor[qolsr.ScenarioMedium](), 3},
		{reflect.TypeFor[qolsr.ScenarioMobility](), 1},
		{reflect.TypeFor[qolsr.NetworkOptions](), 2},
		{reflect.TypeFor[qolsr.MediumLossyConfig](), 3},
		{reflect.TypeFor[qolsr.PointScenario](), 7},
		{reflect.TypeFor[qolsr.ControlSweepOptions](), 5},
		{reflect.TypeFor[qolsr.LossSweepOptions](), 6},
		{reflect.TypeFor[qolsr.LoadSweepOptions](), 7},
		{reflect.TypeFor[qolsr.ScaleSweepOptions](), 10},
		{reflect.TypeFor[qolsr.OverheadSweepOptions](), 5},
	}
	total := 0
	for _, p := range pins {
		n := 0
		for i := range p.typ.NumField() {
			if p.typ.Field(i).IsExported() {
				n++
			}
		}
		total += n
		if n > p.max {
			t.Errorf("%v has %d exported fields, pinned at %d", p.typ, n, p.max)
		}
	}
	t.Logf("%d exported fields across %d option types", total, len(pins))
}
