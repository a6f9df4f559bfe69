// Command sate-controld runs the TE control center of Fig. 3 as an HTTP
// service: it ticks simulated time at wall-clock pace, recomputes the
// allocation every interval with the chosen solver, compiles and verifies
// per-satellite rules, and serves them over JSON.
//
// Usage:
//
//	sate-controld -cons iridium -solver ecmp-wf -listen :8080 -interval 5
//	sate-controld -cons iridium -solver sate -model m.gob -dtype float32
//	curl localhost:8080/v1/status
//	curl localhost:8080/v1/rules?node=12
//	curl localhost:8080/v1/deltas?since=0
//	curl localhost:8080/metrics
//	curl -X POST -d '{"time_sec": 300}' localhost:8080/v1/recompute
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// The scenario and solver flags are sim.Spec keys, spelled as in the sate
// command. The API lives under /v1/ (DESIGN.md §14). GETs serve the published
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
	"sate/internal/controller"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/sim"
	"sate/internal/solve"
)

func main() {
	spec := sim.Spec{Cons: "iridium", Solver: "ecmp-wf", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	}}
	spec.Flags(flag.CommandLine, "cons", "intensity", "seed", "min-elev", "dur-scale", "solver", "model", "shards")
	var (
		dtype    = flag.String("dtype", "float64", "inference precision for -solver sate: float64 | float32")
		listen   = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		interval = flag.Float64("interval", 5, "TE workflow interval, seconds")
		start    = flag.Float64("start", 150, "initial simulated time")

		deltaHistory   = flag.Int("delta-history", 0, "rule-delta changelog retention, versions (0 = default 64); clients further behind get a full sync")
		recomputeQueue = flag.Int("recompute-queue", 0, "max queued /v1/recompute requests coalescing into the next solve (0 = default 64); beyond it requests get 429")

		cycleTimeout  = flag.Float64("cycle-timeout", 0, "per-cycle timeout, seconds (0 = 10x interval, negative disables)")
		retryBase     = flag.Float64("retry-base", 0, "initial retry backoff after a failed cycle, seconds (0 = interval/4)")
		retryMax      = flag.Float64("retry-max", 0, "retry backoff cap, seconds (0 = 4x interval)")
		chaosFailFrac = flag.Float64("chaos-fail-frac", 0, "chaos mode: fraction of links failed each cycle (0 disables)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "chaos mode RNG seed")
	)
	flag.Parse()

	var solverOpts []solve.Option
	switch *dtype {
	case "float64":
	case "float32":
		solverOpts = append(solverOpts, solve.WithDtype(solve.Float32))
	default:
		fatal(fmt.Errorf("unknown dtype %q (want float64 | float32)", *dtype))
	}

	scen, err := spec.Scenario()
	if err != nil {
		fatal(err)
	}
	solver, err := spec.NewSolver()
	if err != nil {
		fatal(err)
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
		scen.Cons.Name, solver.Name(), *interval, *listen)
	fmt.Printf("gemm kernel: %s\n", autodiff.GemmKernel())
	if *chaosFailFrac > 0 {
		fmt.Printf("chaos mode: failing %.1f%% of links per cycle (seed %d)\n", 100**chaosFailFrac, *chaosSeed)
	}
	fmt.Printf("API on http://%s/v1/{status,allocation,rules,deltas}, metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n", *listen, *listen, *listen)

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("shutting down")
	}
	cancel()
	if err := httpSrv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sate-controld:", err)
	os.Exit(1)
}
