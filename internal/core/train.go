package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sate/internal/autodiff"
	"sate/internal/obs"
	"sate/internal/solve"
	"sate/internal/te"
)

// Hyperparameters of the mixed loss of Appendix B, grid-searched. The
// supervised term is the anchor (its labels are feasible by construction);
// the penalized-optimization term nudges toward higher flow and away from
// overload without being allowed to dominate early training — a large
// balance keeps the overload penalty from crashing the gates before the
// supervised signal differentiates paths (feasibility at inference is
// guaranteed by trimming).
const (
	lambdaFlow    float64 = 1  // weights total-flow reward in the penalty term
	lambdaBalance float64 = 40 // balances supervised vs penalized-optimization terms
	alphaMax      float64 = 2  // utilisation clamp inside the exp of Eq. (5)
)

// clipNorm is the global gradient-norm clip of the training loop.
const clipNorm float64 = 5

// Sample is one training data point: a TE problem with ground-truth labels
// produced by the reference solver (the paper uses Gurobi; here the exact
// simplex / GK solver).
type Sample struct {
	Problem *te.Problem
	Graph   *TEGraph
	// Labels are the optimal x*_fp in the problem's path-variable order; nil
	// for an unlabelled sample (the self-supervised MLU objective).
	Labels []float64
}

// NewSample builds a training sample from a problem and a reference
// allocation; a nil allocation makes an unlabelled sample.
func NewSample(p *te.Problem, ref *te.Allocation) *Sample {
	s := &Sample{Problem: p, Graph: BuildTEGraph(p)}
	if ref != nil {
		s.Labels = make([]float64, 0, s.Graph.NumPaths)
		for _, row := range ref.X {
			s.Labels = append(s.Labels, row...)
		}
	}
	return s
}

// SupervisedLoss computes only the supervised term (demand-normalised MSE
// against the reference labels). Training warm-starts on it before blending
// in the penalized-optimization term: with heavy overload the penalty can
// crash an undifferentiated model into a dead all-zero allocation, whereas
// the labels are feasible by construction and anchor the model first.
func SupervisedLoss(tp *autodiff.Tape, s *Sample, x *autodiff.Value) *autodiff.Value {
	g := s.Graph
	p := s.Problem
	if g.NumPaths == 0 {
		return tp.Const(tp.Zeros(1, 1))
	}
	invD := tp.Zeros(g.NumPaths, 1)
	labN := tp.Zeros(g.NumPaths, 1)
	for j, fi := range g.VarFlow {
		d := p.Flows[fi].DemandMbps
		if d <= 0 {
			d = 1
		}
		invD.Data[j] = 1 / d
		labN.Data[j] = s.Labels[j] / d
	}
	xn := tp.Mul(x, tp.Const(invD))
	return tp.MSE(xn, tp.Const(labN))
}

// Loss computes the mixed loss of Eq. (4)/(5) for a forward pass:
//
//	L = L_supervised +
//	    (-λ_flow·total_flow + Σ_i α_i·over_flow_i) / (λ_balance·λ_flow·total_demand)
//	α_i = exp(min(utilization_i/capacity_i, α_max))
//
// x is the model's NumPaths x 1 allocation; the supervised term is the MSE of
// demand-normalised allocations against the labels.
func Loss(tp *autodiff.Tape, s *Sample, x *autodiff.Value) *autodiff.Value {
	g := s.Graph
	p := s.Problem
	if g.NumPaths == 0 {
		return tp.Const(tp.Zeros(1, 1))
	}

	// Demand-normalised supervised anchor (same term as SupervisedLoss).
	sup := SupervisedLoss(tp, s, x)

	// total_flow = sum of allocations.
	totalFlow := tp.SumAll(x)

	// Per-link loads via scatter over the problem's variable->link incidence.
	vars, links := p.Incidence()
	loss := sup
	totalDemand := p.TotalDemand()
	if totalDemand <= 0 {
		totalDemand = 1
	}
	den := lambdaBalance * lambdaFlow * totalDemand
	if len(vars) > 0 {
		contrib := tp.Gather(x, vars)                            // nnz x 1
		loads := tp.ScatterAddRows(contrib, links, len(p.Links)) // links x 1
		// alpha_i of Eq. (5) are adaptive penalty COEFFICIENTS: computed
		// from the current utilisations but detached from the gradient.
		// Back-propagating through the exponential makes the penalty
		// gradient explode under overload and kills the (sigmoid) gates.
		alphaConst := tp.Zeros(len(p.Links), 1)
		for i := range p.LinkCap {
			if p.LinkCap[i] > 0 {
				u := loads.Val.Data[i] / p.LinkCap[i]
				alphaConst.Data[i] = math.Exp(math.Min(u, alphaMax))
			}
		}
		caps := tp.Const(tp.TensorFrom(len(p.Links), 1, p.LinkCap))
		over := tp.ReLU(tp.Sub(loads, caps)) // over_flow_i
		penalty := tp.SumAll(tp.Mul(tp.Const(alphaConst), over))
		mixed := tp.Scale(tp.Sub(penalty, tp.Scale(totalFlow, lambdaFlow)), 1/den)
		loss = tp.Add(loss, mixed)
	} else {
		loss = tp.Add(loss, tp.Scale(totalFlow, -lambdaFlow/den))
	}
	return loss
}

// TrainConfig controls the training loop. Each zero field takes its
// default (DefaultTrainConfig).
type TrainConfig struct {
	// Epochs of Adam over the samples (default 30).
	Epochs int
	// LR is Adam's learning rate (default 3e-3).
	LR float64
	// WarmupFrac is the fraction of epochs trained on the supervised term
	// alone before the penalized-optimization term is blended in (see
	// SupervisedLoss). The default of 1.0 stays purely supervised: CPU-scale
	// training is most robust that way — under heavy overload the Mbps-scale
	// penalty gradient overwhelms the demand-normalised supervised term and
	// can crash the gates (see the abl-loss experiment). Set below 1 to
	// blend the Eq. 4 mixed loss in after a supervised warm start.
	WarmupFrac float64
	// Objective selects the loss: throughput (the zero value) trains against
	// the samples' labels; MLU trains the self-supervised mluLoss, reads no
	// labels and drops samples without path variables.
	Objective solve.Objective
	// Log, when set, receives each epoch's mean loss.
	Log func(epoch int, loss float64)
	// Registry receives training metrics: per-epoch loss gauge, per-step
	// latency histogram, forward/backward/adam-step spans and tape-arena
	// reuse/alloc counters (DESIGN.md §9). Nil disables instrumentation.
	Registry *obs.Registry
}

// trainObs bundles the training-loop metric handles, pre-resolved once per
// run so the epoch loop performs only atomic updates (every handle is nil —
// and every update a no-op — when no registry is attached).
type trainObs struct {
	epochLoss   *obs.Gauge
	epochsTotal *obs.Counter
	stepSeconds *obs.Histogram
	spForward   *obs.Histogram
	spBackward  *obs.Histogram
	spAdam      *obs.Histogram
	tapeReuse   *obs.Counter
	tapeAlloc   *obs.Counter
	prev        autodiff.ArenaStats
}

func newTrainObs(reg *obs.Registry) trainObs {
	return trainObs{
		epochLoss:   reg.Gauge("sate_train_epoch_loss"),
		epochsTotal: reg.Counter("sate_train_epochs_total"),
		stepSeconds: reg.Histogram("sate_train_step_seconds", obs.DefLatencyBuckets),
		spForward:   reg.SpanHistogram(obs.PhaseForward),
		spBackward:  reg.SpanHistogram(obs.PhaseBackward),
		spAdam:      reg.SpanHistogram(obs.PhaseAdamStep),
		tapeReuse:   reg.Counter("sate_tape_tensor_reuse_total"),
		tapeAlloc:   reg.Counter("sate_tape_tensor_alloc_total"),
	}
}

// epoch records the end of one epoch: loss gauge, epoch counter, and the
// tape-arena deltas since the previous call (reuse vs. fresh allocation —
// the live view of the §8 memory model).
func (to *trainObs) epoch(tp *autodiff.Tape, mean float64) {
	to.epochLoss.Set(mean)
	to.epochsTotal.Inc()
	if to.tapeReuse == nil && to.tapeAlloc == nil {
		return
	}
	st := tp.ArenaStats()
	to.tapeReuse.Add(st.TensorReuse - to.prev.TensorReuse)
	to.tapeAlloc.Add(st.TensorAlloc - to.prev.TensorAlloc)
	to.prev = st
}

// DefaultTrainConfig returns sane CPU-scale defaults: the values a zero
// TrainConfig field takes.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LR: 3e-3, WarmupFrac: 1.0}
}

// TrainResult summarises a training run.
type TrainResult struct {
	FinalLoss float64
	Losses    []float64 // mean loss per epoch
}

// Train fits the model on the samples with Adam: the one training loop,
// for either objective.
func Train(m *Model, samples []*Sample, cfg TrainConfig) (*TrainResult, error) {
	d := DefaultTrainConfig()
	cfg.Epochs, cfg.LR, cfg.WarmupFrac = cmp.Or(cfg.Epochs, d.Epochs), cmp.Or(cfg.LR, d.LR), cmp.Or(cfg.WarmupFrac, d.WarmupFrac)
	mlu := cfg.Objective == solve.MLU
	if mlu { // no path variables, no MLU gradient
		samples = slices.DeleteFunc(slices.Clone(samples), func(s *Sample) bool {
			vars, _ := s.Problem.Incidence()
			return len(vars) == 0
		})
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	opt := autodiff.NewAdam(cfg.LR, m.Params()...)
	opt.ClipNorm = clipNorm
	warmEpochs := int(cfg.WarmupFrac * float64(cfg.Epochs))
	res := &TrainResult{}
	to := newTrainObs(cfg.Registry)
	// One tape for the whole run: Reset recycles every intermediate into the
	// arena, so after the first pass per problem size steps allocate nothing.
	tp := autodiff.NewTape()
	for ep := 0; ep < cfg.Epochs; ep++ {
		var sum float64
		for _, s := range samples {
			tp.Reset()
			step := obs.StartTimer(to.stepSeconds)
			sp := obs.StartTimer(to.spForward)
			var l *autodiff.Value
			switch {
			case mlu:
				l = mluLoss(tp, m, s)
			case ep < warmEpochs:
				l = SupervisedLoss(tp, s, m.Allocate(tp, s.Graph, s.Problem))
			default:
				l = Loss(tp, s, m.Allocate(tp, s.Graph, s.Problem))
			}
			sp.End()
			opt.ZeroGrad()
			sp = obs.StartTimer(to.spBackward)
			tp.Backward(l)
			sp.End()
			sp = obs.StartTimer(to.spAdam)
			opt.Step()
			sp.End()
			step.End()
			lv := l.Val.Data[0]
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				return nil, fmt.Errorf("core: loss diverged at epoch %d", ep)
			}
			sum += lv
		}
		mean := sum / float64(len(samples))
		res.Losses = append(res.Losses, mean)
		res.FinalLoss = mean
		m.InvalidateWeightCaches()
		to.epoch(tp, mean)
		if cfg.Log != nil {
			cfg.Log(ep, mean)
		}
	}
	return res, nil
}
