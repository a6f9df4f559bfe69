package controller

import (
	"context"
	"errors"
	"sync"
)

// errBusy is returned by the admission gate when the pending batch is full;
// handleRecompute translates it into 429 Too Many Requests + Retry-After.
var errBusy = errors.New("controller: recompute queue full")

// DefaultRecomputeQueue bounds how many requests may wait in the pending
// batch behind an in-flight solve before new arrivals are rejected.
const DefaultRecomputeQueue = 64

// gateBatch is one coalesced group of /recompute requests: all of them are
// answered by a single solve at the maximum requested simulated time.
type gateBatch struct {
	timeSec float64
	waiters int
	// lead carries the leadership token (capacity 1): when the in-flight
	// solve finishes, exactly one waiter of the promoted batch receives it
	// and runs the batch's solve. Waiters never abandon the select on
	// lead/done, so the token is always consumed and the chain never stalls.
	lead chan struct{}
	// done is closed by the batch leader after its solve; err is the solve's
	// result, valid once done is closed.
	done chan struct{}
	err  error
}

// recomputeGate is the admission-control state for POST /recompute:
// at most one solve in flight, at most one pending batch coalescing
// every request that arrived while it runs, and a bound on batch size.
// This shapes *external* request load; the internal RecomputeContext API
// keeps its serialized first-come-first-served semantics.
type recomputeGate struct {
	mu       sync.Mutex
	inflight bool
	pending  *gateBatch
}

// recomputeAdmit runs one admission-controlled recompute at tSec:
// if no solve is in flight the caller leads immediately; otherwise it joins
// (or opens) the pending batch and either waits for the batch's result or
// is promoted to run the batch itself. Returns errBusy when the batch is
// already at the queue bound. coalesced reports whether the request shared
// its solve with other batched requests.
func (s *Server) recomputeAdmit(ctx context.Context, tSec float64) (coalesced bool, err error) {
	g := &s.gate
	g.mu.Lock()
	if !g.inflight {
		g.inflight = true
		g.mu.Unlock()
		err = s.recomputeDetached(ctx, tSec)
		s.gatePromote()
		return false, err
	}
	b := g.pending
	if b == nil {
		b = &gateBatch{timeSec: tSec, lead: make(chan struct{}, 1), done: make(chan struct{})}
		g.pending = b
	} else {
		if b.waiters >= s.maxQueue {
			g.mu.Unlock()
			s.metrics.rejected.Inc()
			return false, errBusy
		}
		// Coalesce to the newest simulated time: serving t=200 satisfies a
		// request for t=100 (the monotonic publish guard would drop the
		// older result anyway).
		if tSec > b.timeSec {
			b.timeSec = tSec
		}
	}
	b.waiters++
	g.mu.Unlock()

	select {
	case <-b.done:
		// Another member of the batch led the solve.
		s.metrics.coalesced.Inc()
		return true, b.err
	case <-b.lead:
		b.err = s.recomputeDetached(ctx, b.timeSec)
		close(b.done)
		s.gatePromote()
		if b.waiters > 1 {
			s.metrics.coalesced.Inc()
			return true, b.err
		}
		return false, b.err
	}
}

// recomputeDetached runs one cycle detached from the request's cancellation:
// a coalesced solve answers many clients, so one disconnecting must not
// abandon it (request values stay attached for tracing).
func (s *Server) recomputeDetached(ctx context.Context, tSec float64) error {
	return s.RecomputeContext(context.WithoutCancel(ctx), tSec)
}

// gatePromote hands leadership to the pending batch (or opens the gate when
// none is waiting). Called by whichever goroutine just finished a solve.
func (s *Server) gatePromote() {
	g := &s.gate
	g.mu.Lock()
	b := g.pending
	g.pending = nil
	if b == nil {
		g.inflight = false
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	b.lead <- struct{}{}
}
