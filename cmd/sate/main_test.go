package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"sate/internal/sim"
)

// Every digit a command prints depends on its default scenario, so this pins
// each one; a changed default shows up here, not as a silent shift in a
// reproduced table.
func TestCommandDefaults(t *testing.T) {
	want := map[string]sim.Spec{
		"sim": {Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{
			Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05}},
		"pktsim": {Cons: "toy-5x6", Solver: "ecmp-wf", ScenarioConfig: sim.ScenarioConfig{
			Intensity: 30, Seed: 1, MinElevDeg: 5, Users: 2000, UserClusters: 60, Gateways: 8, Relays: 30}},
		"train": {Cons: "iridium", ScenarioConfig: sim.ScenarioConfig{
			Intensity: 60, Seed: 1, MinElevDeg: 10}},
		"bench":    {ScenarioConfig: sim.ScenarioConfig{Seed: 1}},
		"topology": {Cons: "midsize1", ScenarioConfig: sim.ScenarioConfig{Seed: 1}},
		"traffic": {Cons: "starlink", ScenarioConfig: sim.ScenarioConfig{
			Intensity: 125, Seed: 1, MinElevDeg: 25, Users: 3_000_000, UserClusters: 2000, Gateways: 1000, Relays: 222}},
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		if w, ok := want[c.name]; !ok || !reflect.DeepEqual(c.spec, w) {
			t.Errorf("sate %s defaults to %+v, want %+v", c.name, c.spec, w)
		}
		// Every key the default sets is one the command takes as a flag,
		// and the command's own flags do not collide with spec keys
		// (flag.FlagSet panics on a redefinition).
		spec := c.spec
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec.Flags(fs, c.keys...)
		c.setup(fs)
		if c.spec.Cons != "" && fs.Lookup("cons") == nil {
			t.Errorf("sate %s has a default constellation but no -cons", c.name)
		}
		if c.spec.Solver != "" && fs.Lookup("solver") == nil {
			t.Errorf("sate %s has a default solver but no -solver", c.name)
		}
		if err := fs.Parse([]string{"-seed", "5"}); err != nil || spec.Seed != 5 {
			t.Errorf("sate %s -seed 5: err %v, seed %d", c.name, err, spec.Seed)
		}
	}
}
