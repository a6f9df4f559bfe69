package core_test

import (
	"runtime"
	"testing"
	"time"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/sim"
	"sate/internal/topology"
)

// BenchmarkTrainStep measures one gradient step of the default model — the
// body of core.Train's loop: forward, mixed loss, ZeroGrad, Backward, Adam —
// on one sample and one reused gradient tape, at Iridium (intensity 8) and
// MidSize1 (intensity 25). Beside ns/op it reports the forward and backward
// halves, steps per second and the heap the warm tape retains (after two GCs,
// as the cycle benchmark reads it), with the sample's size: training cost is
// claimed against these, not against an inference solve. Labels are ECMP-WF's
// — a step costs the same whatever the labels say.
//
//	go test -run '^$' -bench TrainStep -benchtime 10x ./internal/core
func BenchmarkTrainStep(b *testing.B) {
	for _, sz := range []struct {
		name      string
		cons      *constellation.Constellation
		intensity float64
	}{
		{"Iridium", constellation.Iridium(), 8},
		{"MidSize1", constellation.MidSize1(), 25},
	} {
		b.Run(sz.name, func(b *testing.B) {
			scen := sim.NewScenario(sz.cons, sim.ScenarioConfig{
				Mode: topology.CrossShellLasers, Intensity: sz.intensity, Seed: 1,
				MinElevDeg: 10, FlowDurationScale: 0.05,
			})
			p, _, _, err := scen.ProblemAt(100)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := baselines.ECMPWF{}.Solve(p)
			if err != nil {
				b.Fatal(err)
			}
			s := core.NewSample(p, ref)

			var before runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)

			m := core.NewModel(core.DefaultConfig())
			opt := autodiff.NewAdam(core.DefaultTrainConfig().LR, m.Params()...)
			tp := autodiff.NewTape()
			var fwd, bwd time.Duration
			step := func() {
				tp.Reset()
				t0 := time.Now()
				l := core.Loss(tp, s, m.Allocate(tp, s.Graph, s.Problem))
				t1 := time.Now()
				opt.ZeroGrad()
				tp.Backward(l)
				fwd, bwd = fwd+t1.Sub(t0), bwd+time.Since(t1)
				opt.Step()
			}
			step() // size the arena
			fwd, bwd = 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()

			var after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tp)
			n := float64(b.N)
			b.ReportMetric(fwd.Seconds()*1e3/n, "fwd-ms/op")
			b.ReportMetric(bwd.Seconds()*1e3/n, "bwd-ms/op")
			b.ReportMetric(n/b.Elapsed().Seconds(), "samples/s")
			b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "tape-MB")
			b.ReportMetric(float64(s.Graph.NumPaths), "path-vars")
			b.ReportMetric(float64(s.Graph.R2.Len()), "R2-edges")
		})
	}
}
