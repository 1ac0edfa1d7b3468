package main

import (
	"fmt"
	"time"

	"bce/internal/confidence"
	"bce/internal/predictor"
	"bce/internal/trace"
	"bce/internal/workload"
)

// decorate.go holds the traced run's timing decorators. Each wraps one
// interface the simulator consumes and adds the time and count of every
// call into an in-memory accumulator; per-uop calls are far too many
// for spans. A decorator must expose exactly the optional interfaces
// of the value it wraps: the pipeline enables its batched estimator
// path by type assertion, so hiding BatchEstimator or BatchTrainer
// would silently make the traced run simulate through a different code
// path, and adding one the wrapped value lacks would be a lie.

// layerTimes accumulates per-layer busy time (ns) and call counts for
// one simulation. Each simulation owns its own, so no locking is needed;
// the caller merges them once the simulation returns.
type layerTimes struct {
	predNs, predCalls  int64
	confNs, confCalls  int64
	nextNs, nextUops   int64
	wrongNs, wrongUops int64
}

func (a *layerTimes) add(b layerTimes) {
	a.predNs += b.predNs
	a.predCalls += b.predCalls
	a.confNs += b.confNs
	a.confCalls += b.confCalls
	a.nextNs += b.nextNs
	a.nextUops += b.nextUops
	a.wrongNs += b.wrongNs
	a.wrongUops += b.wrongUops
}

// childNs is the time the decorated components took, which a caller's
// span subtracts to get its own self time.
func (a *layerTimes) childNs() int64 { return a.predNs + a.confNs + a.nextNs + a.wrongNs }

type timedPredictor struct {
	in  predictor.Predictor
	acc *layerTimes
}

func (p *timedPredictor) Predict(pc uint64) bool {
	t := time.Now()
	r := p.in.Predict(pc)
	p.acc.predNs += int64(time.Since(t))
	p.acc.predCalls++
	return r
}

func (p *timedPredictor) Update(pc uint64, taken bool) {
	t := time.Now()
	p.in.Update(pc, taken)
	p.acc.predNs += int64(time.Since(t))
	p.acc.predCalls++
}

func (p *timedPredictor) Name() string { return p.in.Name() }

type timedSource struct {
	in  trace.Source
	acc *layerTimes
}

func (s *timedSource) Next() (trace.Uop, bool) {
	t := time.Now()
	u, ok := s.in.Next()
	s.acc.nextNs += int64(time.Since(t))
	s.acc.nextUops++
	return u, ok
}

// timedPath times the wrong-path calls that do work (Restart redirects
// the CFG walk, Next generates a uop). Stop and Active are field
// accesses; they are forwarded untimed.
type timedPath struct {
	in  workload.PathSource
	acc *layerTimes
}

func (p *timedPath) Restart(targetPC uint64) {
	t := time.Now()
	p.in.Restart(targetPC)
	p.acc.wrongNs += int64(time.Since(t))
}

func (p *timedPath) Next() (trace.Uop, bool) {
	t := time.Now()
	u, ok := p.in.Next()
	p.acc.wrongNs += int64(time.Since(t))
	p.acc.wrongUops++
	return u, ok
}

func (p *timedPath) Stop()        { p.in.Stop() }
func (p *timedPath) Active() bool { return p.in.Active() }

// timedEstimator is the base estimator decorator; the optional
// interfaces are added by the small forwarding types below and
// assembled in wrapEstimator.
type timedEstimator struct {
	in  confidence.Estimator
	acc *layerTimes
}

func (e *timedEstimator) Estimate(pc uint64, predictedTaken bool) confidence.Token {
	t := time.Now()
	tok := e.in.Estimate(pc, predictedTaken)
	e.acc.confNs += int64(time.Since(t))
	e.acc.confCalls++
	return tok
}

func (e *timedEstimator) Train(pc uint64, tok confidence.Token, mispredicted, taken bool) {
	t := time.Now()
	e.in.Train(pc, tok, mispredicted, taken)
	e.acc.confNs += int64(time.Since(t))
	e.acc.confCalls++
}

func (e *timedEstimator) Name() string { return e.in.Name() }

type batchEstimate struct{ e *timedEstimator }

func (b batchEstimate) EstimateBatch(pcs []uint64, predTaken []bool, toks []confidence.Token) {
	t := time.Now()
	b.e.in.(confidence.BatchEstimator).EstimateBatch(pcs, predTaken, toks)
	b.e.acc.confNs += int64(time.Since(t))
	b.e.acc.confCalls++
}

type batchTrain struct{ e *timedEstimator }

func (b batchTrain) TrainBatch(reqs []confidence.TrainReq) {
	t := time.Now()
	b.e.in.(confidence.BatchTrainer).TrainBatch(reqs)
	b.e.acc.confNs += int64(time.Since(t))
	b.e.acc.confCalls++
}

type observeNext struct{ e *timedEstimator }

func (o observeNext) ObserveNext(mispredicted bool) {
	t := time.Now()
	o.e.in.(confidence.TraceOracle).ObserveNext(mispredicted)
	o.e.acc.confNs += int64(time.Since(t))
	o.e.acc.confCalls++
}

// wrapEstimator decorates est so that the result implements exactly the
// optional interfaces (BatchEstimator, BatchTrainer, TraceOracle) est
// implements. The program's estimators come in three shapes: both batch
// interfaces (CIC), the oracle, and neither. Another shape panics
// rather than silently changing the simulated code path.
func wrapEstimator(est confidence.Estimator, acc *layerTimes) confidence.Estimator {
	e := &timedEstimator{in: est, acc: acc}
	_, be := est.(confidence.BatchEstimator)
	_, bt := est.(confidence.BatchTrainer)
	_, or := est.(confidence.TraceOracle)
	switch {
	case be && bt && !or:
		return struct {
			*timedEstimator
			batchEstimate
			batchTrain
		}{e, batchEstimate{e}, batchTrain{e}}
	case or && !be && !bt:
		return struct {
			*timedEstimator
			observeNext
		}{e, observeNext{e}}
	case !be && !bt && !or:
		return e
	}
	panic(fmt.Sprintf("perfbench: no decorator for estimator %s (batch estimate %v, batch train %v, oracle %v)",
		est.Name(), be, bt, or))
}
