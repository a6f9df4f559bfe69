package sim

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sate/internal/constellation"
	"sate/internal/topology"
)

// Spec names one simulation scenario and the solver that runs on it: the
// constellation, the ScenarioConfig knobs, and the solver, model file and
// shard count NewSolver resolves through the solver table. Every driver
// (the `sate` subcommands, the daemon, the experiments) spells a scenario
// as a Spec, and each of its keys is the flag of the same name (Flags):
//
//	-cons iridium -intensity 8 -seed 1 -min-elev 10 -dur-scale 0.05 -solver sate -model m.gob
type Spec struct {
	// Cons names the constellation: a constellation.ByName preset or
	// "toy-<planes>x<sats>". It is resolved by Constellation and Scenario.
	Cons string
	ScenarioConfig
	// Solver is one solver-table name (SolverNames).
	Solver string
	// Model is a trained SaTE model file, loaded for the "sate" solver.
	Model string
	// Shards > 1 wraps the solver in the regional decomposition.
	Shards int
}

// specKey is one key of a Spec, registered as the flag of the same name.
type specKey struct {
	name, usage string
	get         func(*Spec) string
	set         func(*Spec, string) error
}

var specKeys = []specKey{
	stringKey("cons", "constellation: starlink | iridium | midsize1 | midsize2 | toy-<planes>x<sats>",
		func(s *Spec) *string { return &s.Cons }),
	enumKey("mode", "cross-shell mode", func(s *Spec) *topology.CrossShellMode { return &s.Mode },
		topology.CrossShellLasers, topology.CrossShellGroundRelays, topology.CrossShellNone),
	floatKey("intensity", "traffic intensity, flows/s", 0, math.MaxFloat64,
		func(s *Spec) *float64 { return &s.Intensity }),
	{"seed", "random seed",
		func(s *Spec) string { return strconv.FormatInt(s.Seed, 10) },
		func(s *Spec, v string) error {
			x, err := strconv.ParseInt(v, 10, 64)
			if err == nil {
				s.Seed = x
			}
			return err
		}},
	floatKey("min-elev", "user min elevation, degrees (0 = the paper's 25)", 0, 90,
		func(s *Spec) *float64 { return &s.MinElevDeg }),
	floatKey("dur-scale", "flow duration scale (0 or 1 = the paper's Table 2)", 0, math.MaxFloat64,
		func(s *Spec) *float64 { return &s.FlowDurationScale }),
	intKey("users", "ground users (0 scales with the constellation)", func(s *Spec) *int { return &s.Users }),
	intKey("clusters", "user clusters (0 scales with the constellation)", func(s *Spec) *int { return &s.UserClusters }),
	intKey("gateways", "gateways (0 scales with the constellation)", func(s *Spec) *int { return &s.Gateways }),
	intKey("relays", "ground relays (0 scales with the constellation)", func(s *Spec) *int { return &s.Relays }),
	{"solver", "solver: " + strings.Join(SolverNames(), " | "),
		func(s *Spec) string { return s.Solver },
		func(s *Spec, v string) error {
			if solverRowOf(v) == nil {
				return fmt.Errorf("unknown solver %q (want %s)", v, strings.Join(SolverNames(), " | "))
			}
			s.Solver = v
			return nil
		}},
	stringKey("model", "trained SaTE model file", func(s *Spec) *string { return &s.Model }),
	intKey("shards", "split each solve into this many regional subproblems (0 or 1 = monolithic)",
		func(s *Spec) *int { return &s.Shards }),
}

func stringKey(name, usage string, field func(*Spec) *string) specKey {
	return specKey{name, usage,
		func(s *Spec) string { return *field(s) },
		func(s *Spec, v string) error { *field(s) = v; return nil }}
}

// enumKey is a key whose values are the String forms of values.
func enumKey[T fmt.Stringer](name, usage string, field func(*Spec) *T, values ...T) specKey {
	names := make([]string, len(values))
	for i, x := range values {
		names[i] = x.String()
	}
	want := strings.Join(names, " | ")
	return specKey{name, usage + ": " + want,
		func(s *Spec) string { return (*field(s)).String() },
		func(s *Spec, v string) error {
			for _, x := range values {
				if x.String() == v {
					*field(s) = x
					return nil
				}
			}
			return fmt.Errorf("unknown %s %q (want %s)", name, v, want)
		}}
}

func floatKey(name, usage string, lo, hi float64, field func(*Spec) *float64) specKey {
	return specKey{name, usage,
		func(s *Spec) string { return strconv.FormatFloat(*field(s), 'g', -1, 64) },
		func(s *Spec, v string) error {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return err
			}
			if !(x >= lo && x <= hi) {
				return fmt.Errorf("%s %s out of range [%g, %g]", name, v, lo, hi)
			}
			*field(s) = x
			return nil
		}}
}

func intKey(name, usage string, field func(*Spec) *int) specKey {
	return specKey{name, usage,
		func(s *Spec) string { return strconv.Itoa(*field(s)) },
		func(s *Spec, v string) error {
			x, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			if x < 0 {
				return fmt.Errorf("%s %d is negative", name, x)
			}
			*field(s) = x
			return nil
		}}
}

// Flags registers the named keys on fs as flags that set s; each flag's
// default is s's current value.
func (s *Spec) Flags(fs *flag.FlagSet, keys ...string) {
	for _, name := range keys {
		var k *specKey
		for i := range specKeys {
			if specKeys[i].name == name {
				k = &specKeys[i]
			}
		}
		if k == nil {
			panic("sim: unknown spec key " + name)
		}
		fs.Var(specFlag{s, k}, name, k.usage)
	}
}

// specFlag is a flag.Value over one key of a Spec.
type specFlag struct {
	s *Spec
	k *specKey
}

func (f specFlag) String() string {
	if f.s == nil { // the zero value flag.PrintDefaults probes
		return ""
	}
	return f.k.get(f.s)
}

func (f specFlag) Set(v string) error { return f.k.set(f.s, v) }

// Constellation resolves s.Cons.
func (s Spec) Constellation() (*constellation.Constellation, error) {
	c, ok := constellation.ByName(s.Cons)
	if !ok {
		return nil, fmt.Errorf("unknown constellation %q (want starlink | iridium | midsize1 | midsize2 | toy-<planes>x<sats>)", s.Cons)
	}
	return c, nil
}

// Scenario builds the scenario s names (NewScenario on its constellation and
// ScenarioConfig).
func (s Spec) Scenario() (*Scenario, error) {
	c, err := s.Constellation()
	if err != nil {
		return nil, err
	}
	return NewScenario(c, s.ScenarioConfig), nil
}
