// Command sate is the reproduction's command line: one binary whose
// subcommands each run one driver over a sim.Spec, so a constellation, a
// traffic intensity or a solver is spelled by the same flag everywhere.
//
// Usage:
//
//	sate <command> [flags]
//	sate <command> -h   # the command's flags and defaults
//
// The spec flags (-cons, -mode, -intensity, -seed, -min-elev, -dur-scale,
// -users, -clusters, -gateways, -relays, -solver, -model, -shards) are the
// keys of sim.Spec; each command registers the ones it honours, with its own
// defaults. The daemon (sate-controld) and the load generator (sate-load)
// stay separate binaries; their scenario flags are keys of the same table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sate/internal/sim"
)

// command is one subcommand: its default spec, the spec keys it takes as
// flags, and setup, which registers its own flags and returns what runs
// once they are parsed.
type command struct {
	name, summary string
	spec          sim.Spec
	keys          []string
	setup         func(fs *flag.FlagSet) func(sim.Spec) error
}

var commands = []command{
	simCommand,
	pktsimCommand,
	trainCommand,
	benchCommand,
	topologyCommand,
	trafficCommand,
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage())
		os.Exit(2)
	}
	name := os.Args[1]
	switch name {
	case "help", "-h", "-help", "--help":
		fmt.Print(usage())
		return
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		spec := c.spec
		fs := flag.NewFlagSet("sate "+c.name, flag.ExitOnError)
		spec.Flags(fs, c.keys...)
		run := c.setup(fs)
		if err := fs.Parse(os.Args[2:]); err != nil { // ExitOnError has already exited
			os.Exit(2)
		}
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "sate %s: unexpected argument %q\n", c.name, fs.Arg(0))
			os.Exit(2)
		}
		if err := run(spec); err != nil {
			fmt.Fprintf(os.Stderr, "sate %s: %v\n", c.name, err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "sate: unknown command %q\n", name)
	fmt.Fprint(os.Stderr, usage())
	os.Exit(2)
}

func usage() string {
	var b strings.Builder
	b.WriteString("usage: sate <command> [flags]; sate <command> -h lists its flags\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-9s %s\n", c.name, c.summary)
	}
	return b.String()
}
