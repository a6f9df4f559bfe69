// Command sate-controld runs the TE control center of Fig. 3 as an HTTP
// service: it ticks simulated time at wall-clock pace, recomputes the
// allocation every interval with the chosen solver, compiles and verifies
// per-satellite rules, and serves them over JSON.
//
// Usage:
//
//	sate-controld -cons iridium -method ecmp-wf -listen :8080 -interval 5
//	curl localhost:8080/v1/status
//	curl localhost:8080/v1/rules?node=12
//	curl localhost:8080/v1/deltas?since=0
//	curl localhost:8080/metrics
//	curl -X POST -d '{"time_sec": 300}' localhost:8080/v1/recompute
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// The API lives under /v1/ (DESIGN.md §14). GETs serve the published
// snapshot's cached bytes with its version as ETag, so pollers holding
// If-None-Match get 304s.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/controller"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/shard"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/topology"
)

func main() {
	var (
		consName  = flag.String("cons", "iridium", "constellation: starlink | iridium | midsize1 | midsize2")
		method    = flag.String("method", "ecmp-wf", "solver: sate (needs -model) | lp | gk | pop | ecmp-wf | maxmin-fair")
		modelPath = flag.String("model", "", "trained SaTE model file (for -method sate)")
		listen    = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		intensity = flag.Float64("intensity", 8, "traffic intensity, flows/s")
		interval  = flag.Float64("interval", 5, "TE workflow interval, seconds")
		start     = flag.Float64("start", 150, "initial simulated time")
		durScale  = flag.Float64("dur-scale", 0.05, "flow duration scale")
		minElev   = flag.Float64("min-elev", 10, "user min elevation, degrees")
		seed      = flag.Int64("seed", 1, "random seed")

		dtype  = flag.String("dtype", "float64", "inference precision for -method sate: float64 | float32")
		shards = flag.Int("shards", 1, "split each solve into this many regional subproblems with boundary reconciliation (1 = monolithic)")

		deltaHistory   = flag.Int("delta-history", 0, "rule-delta changelog retention, versions (0 = default 64); clients further behind get a full sync")
		recomputeQueue = flag.Int("recompute-queue", 0, "max queued /v1/recompute requests coalescing into the next solve (0 = default 64); beyond it requests get 429")

		cycleTimeout  = flag.Float64("cycle-timeout", 0, "per-cycle timeout, seconds (0 = 10x interval, negative disables)")
		retryBase     = flag.Float64("retry-base", 0, "initial retry backoff after a failed cycle, seconds (0 = interval/4)")
		retryMax      = flag.Float64("retry-max", 0, "retry backoff cap, seconds (0 = 4x interval)")
		chaosFailFrac = flag.Float64("chaos-fail-frac", 0, "chaos mode: fraction of links failed each cycle (0 disables)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "chaos mode RNG seed")
	)
	flag.Parse()

	cons, ok := constellation.ByName(*consName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown constellation %q\n", *consName)
		os.Exit(2)
	}
	scen := sim.NewScenario(cons, sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         *intensity,
		Seed:              *seed,
		MinElevDeg:        *minElev,
		FlowDurationScale: *durScale,
	})

	var solver sim.Allocator
	switch *method {
	case "sate":
		if *modelPath == "" {
			fmt.Fprintln(os.Stderr, "-method sate requires -model (train one with sate-train -save)")
			os.Exit(2)
		}
		m, err := core.LoadFile(*modelPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		solver = m
	case "lp":
		solver = baselines.LPAuto{}
	case "gk":
		solver = baselines.GK{Epsilon: 0.05}
	case "pop":
		solver = &baselines.POP{K: 4, Seed: *seed}
	case "ecmp-wf":
		solver = baselines.ECMPWF{}
	case "maxmin-fair":
		solver = baselines.MaxMinFair{}
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}
	if *shards > 1 {
		solver = shard.New(solver, *shards)
	}

	reg := obs.NewRegistry()
	reg.CollectGoRuntime()
	par.Observe(reg)
	// Which gemm kernel produced this process's latency figures: one labelled
	// sample, and one line in the start-up log below.
	reg.CounterVec("sate_autodiff_gemm_kernel", "isa").With(autodiff.GemmKernel()).Inc()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	ctlOpts := []controller.Option{controller.WithRegistry(reg)}
	if *deltaHistory > 0 {
		ctlOpts = append(ctlOpts, controller.WithDeltaHistory(*deltaHistory))
	}
	if *recomputeQueue > 0 {
		ctlOpts = append(ctlOpts, controller.WithRecomputeQueue(*recomputeQueue))
	}
	// Every cycle solves through one workspace (DESIGN.md §11): bitwise what
	// a cold solve returns, without rebuilding what held still since the
	// previous cycle. Solvers other than SaTE ignore it; the sharded solver
	// substitutes one per sub-problem.
	solverOpts := []solve.Option{solve.WithWarm(&core.CycleState{})}
	switch *dtype {
	case "float64":
	case "float32":
		solverOpts = append(solverOpts, solve.WithDtype(solve.Float32))
	default:
		fmt.Fprintf(os.Stderr, "unknown dtype %q\n", *dtype)
		os.Exit(2)
	}
	ctlOpts = append(ctlOpts, controller.WithSolverOptions(solverOpts...))

	srv := controller.New(scen, solver, ctlOpts...)
	runCfg := controller.RunConfig{
		StartSec:        *start,
		IntervalSec:     *interval,
		CycleTimeoutSec: *cycleTimeout,
		RetryBaseSec:    *retryBase,
		RetryMaxSec:     *retryMax,
		FailFrac:        *chaosFailFrac,
		ChaosSeed:       *chaosSeed,
	}
	errc := make(chan error, 2)
	//lint:ignore no-naked-goroutine server lifecycle, not compute parallelism: the tick loop runs for the process lifetime
	go func() { errc <- srv.RunContext(ctx, runCfg) }()
	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	//lint:ignore no-naked-goroutine server lifecycle, not compute parallelism: ListenAndServe blocks until shutdown
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Printf("sate-controld: %s, method %s, interval %gs, listening on %s\n",
		cons.Name, solver.Name(), *interval, *listen)
	fmt.Printf("gemm kernel: %s\n", autodiff.GemmKernel())
	if *chaosFailFrac > 0 {
		fmt.Printf("chaos mode: failing %.1f%% of links per cycle (seed %d)\n", 100**chaosFailFrac, *chaosSeed)
	}
	fmt.Printf("API on http://%s/v1/{status,allocation,rules,deltas}, metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n", *listen, *listen, *listen)

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("shutting down")
	}
	cancel()
	if err := httpSrv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
