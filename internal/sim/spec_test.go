package sim

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/shard"
	"sate/internal/topology"
)

// allKeyFlags registers every key of s on a fresh FlagSet.
func allKeyFlags(s *Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var all []string
	for _, k := range specKeys {
		all = append(all, k.name)
	}
	s.Flags(fs, all...)
	return fs
}

// Each flag sets its one field over the defaults, and prints that field as
// its default.
func TestSpecFlags(t *testing.T) {
	s := Spec{Cons: "toy-5x6", Solver: "ecmp-wf", ScenarioConfig: ScenarioConfig{Intensity: 30, Seed: 1}}
	fs := allKeyFlags(&s)
	var n int
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(specKeys) {
		t.Errorf("Flags registered %d flags, want every one of the %d keys", n, len(specKeys))
	}
	if got := fs.Lookup("intensity").DefValue; got != "30" {
		t.Errorf("-intensity default %q, want the spec's 30", got)
	}
	args := []string{"-cons", "iridium", "-mode", "ground-relays", "-seed", "-7", "-min-elev", "89.5",
		"-dur-scale", "0.05", "-users", "2000", "-clusters", "60", "-gateways", "8", "-relays", "0",
		"-solver", "sate", "-model", "dir with space/m.gob", "-shards", "2"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Spec{Cons: "iridium", Solver: "sate", Model: "dir with space/m.gob", Shards: 2,
		ScenarioConfig: ScenarioConfig{Mode: topology.CrossShellGroundRelays, Intensity: 30, Seed: -7,
			MinElevDeg: 89.5, FlowDurationScale: 0.05, Users: 2000, UserClusters: 60, Gateways: 8}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("flags gave %+v, want %+v", s, want)
	}
}

func TestSpecFlagsReject(t *testing.T) {
	for _, kv := range [][2]string{
		{"mode", "relays"}, {"solver", "ecmp"}, {"solver", "lp,pop"}, {"solver", ""},
		{"intensity", "-1"}, {"intensity", "NaN"}, {"intensity", "Inf"}, {"intensity", "1e999"},
		{"min-elev", "91"}, {"dur-scale", "-0.5"},
		{"seed", "1.5"}, {"seed", "99999999999999999999"}, {"users", "-1"}, {"shards", "x"},
	} {
		var s Spec
		if err := allKeyFlags(&s).Parse([]string{"-" + kv[0], kv[1]}); err == nil {
			t.Errorf("-%s %q accepted: %+v", kv[0], kv[1], s)
		}
	}
}

// Spec.Scenario is NewScenario on the named constellation and the embedded
// ScenarioConfig: the same problem, flow for flow.
func TestSpecScenarioIsNewScenario(t *testing.T) {
	cfg := ScenarioConfig{Intensity: 30, Seed: 3, MinElevDeg: 5, Users: 2000, UserClusters: 60, Gateways: 8, Relays: 4}
	fromSpec, err := Spec{Cons: "toy-5x6", ScenarioConfig: cfg}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	p1, _, _, err := fromSpec.ProblemAt(200)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := NewScenario(constellation.Toy(5, 6), cfg).ProblemAt(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Flows) == 0 || !reflect.DeepEqual(p1.Flows, p2.Flows) {
		t.Errorf("Spec.Scenario built %d flows, NewScenario %d (or they differ)", len(p1.Flows), len(p2.Flows))
	}
	if _, err := (Spec{Cons: "nope"}).Scenario(); err == nil {
		t.Error("unknown constellation accepted")
	}
}

func TestSolverTable(t *testing.T) {
	s := Spec{ScenarioConfig: ScenarioConfig{Seed: 9}}
	for _, name := range SolverNames() {
		s.Solver = name
		al, err := s.NewSolver()
		if name == "sate" {
			if err == nil {
				t.Error(`"sate" without a model file built a solver`)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pop, ok := al.(*baselines.POP); ok && pop.Seed != 9 {
			t.Errorf("pop seeded %d, want the spec's 9", pop.Seed)
		}
	}
	if got := RecomputeIntervalSec("lp"); got != 47 {
		t.Errorf("lp interval %v, want the paper's 47 s", got)
	}
	if got := RecomputeIntervalSec("sate"); got != 0 {
		t.Errorf("sate interval %v, want 0 (every step)", got)
	}

	path := filepath.Join(t.TempDir(), "m.gob")
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 8
	if err := core.NewModel(cfg).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	al, err := Spec{Solver: "sate", Model: path, Shards: 3}.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	if sh, ok := al.(*shard.Solver); !ok || !strings.HasPrefix(sh.Name(), "shard") {
		t.Errorf("shards=3 built %T %q, want the sharded wrapper", al, al.Name())
	}
	if _, err := (Spec{Solver: "lp,pop"}).NewSolver(); err == nil {
		t.Error("NewSolver built one solver from a list")
	}
}
