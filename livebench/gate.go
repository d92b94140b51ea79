package main

import (
	"fmt"
	"math"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
)

// reference is plain single-worker full-batch gradient descent on the same
// data, optimizer and starting point as the live jobs. at(n) returns the
// parameters after n iterations; requests for increasing n continue the
// same trajectory.
type reference struct {
	model  *ml.Softmax
	data   *ml.Dataset
	opt    *ml.SGD
	params []float64
	iter   int
	busy   time.Duration // time spent iterating, for the reference's own rate
	w      spec
}

func newReference(w spec, in *inputs) *reference {
	r := &reference{model: w.model(), data: in.data, w: w}
	r.reset()
	return r
}

func (r *reference) reset() {
	r.opt = &ml.SGD{LR: r.w.lr}
	r.params = r.model.InitParams(nil)
	r.iter = 0
}

func (r *reference) at(n int) ([]float64, error) {
	if n < r.iter {
		r.reset()
	}
	t0 := time.Now()
	scale := 1 / float64(r.data.N())
	for ; r.iter < n; r.iter++ {
		g, err := r.model.Gradient(r.params, r.data)
		if err != nil {
			return nil, err
		}
		g.Scale(scale)
		if err := r.opt.Step(r.params, g); err != nil {
			return nil, err
		}
	}
	r.busy += time.Since(t0)
	return append([]float64(nil), r.params...), nil
}

// rate is the reference's own iterations per second: the single-worker
// baseline the live cluster is compared against.
func (r *reference) rate() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.iter) / r.busy.Seconds()
}

// paramTol bounds the live/reference parameter gap for lossless codecs. A
// straggler budget s > 0 changes only the order in which partition
// gradients are summed, so the trajectories agree to float rounding.
const paramTol = 1e-9

// int8LossTol bounds the relative loss gap for the int8 codec: one
// quantization step, 1/127 of a chunk's largest magnitude, is the codec's
// stated per-element error.
const int8LossTol = 1.0 / 127

// gate checks a job's final parameters against the reference after the
// same number of iterations; a non-nil error fails the job.
func gate(w spec, in *inputs, live, ref []float64) error {
	if len(live) != len(ref) {
		return fmt.Errorf("live params have %d entries, reference %d", len(live), len(ref))
	}
	if grad.InfOrNaN(live) {
		return fmt.Errorf("live params are not finite")
	}
	if w.codec.Lossless() {
		var scale float64
		for _, v := range ref {
			scale = math.Max(scale, math.Abs(v))
		}
		gap := grad.Gradient(live).MaxAbsDiff(ref)
		if gap > paramTol*(1+scale) {
			return fmt.Errorf("params differ from the reference by %.3g (tolerance %.3g)", gap, paramTol*(1+scale))
		}
		return nil
	}
	m := w.model()
	lLive, err := ml.MeanLoss(m, live, in.data)
	if err != nil {
		return err
	}
	lRef, err := ml.MeanLoss(m, ref, in.data)
	if err != nil {
		return err
	}
	if gap := math.Abs(lLive - lRef); gap > int8LossTol*lRef {
		return fmt.Errorf("loss %.6g differs from the reference %.6g by more than %.3g", lLive, lRef, int8LossTol*lRef)
	}
	return nil
}
