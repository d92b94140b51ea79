package main

import (
	"github.com/hetgc/hetgc/internal/obs"
)

// rootPhases are the root-side phase spans of an iteration trace, each with
// the layer its per-layer metric is named after. Phases run back to back
// and none nests inside another, so each span is its phase's self time.
var rootPhases = []struct{ phase, layer string }{
	{obs.PhaseBroadcast, "roster.broadcast"},
	{obs.PhaseCollect, "roster.collect"},
	{obs.PhaseDecode, "core.decode"},
	{obs.PhaseReduce, "shard.reduce"},
	{obs.PhaseStep, "ml.step"},
	{obs.PhasePersist, "checkpoint.persist"},
}

// memberPhases are the phases members echo on their uploads. The wire time
// is the residual the root cannot attribute to any echoed phase: a member's
// arrival latency minus its echoed spans.
var memberPhases = []struct{ phase, layer string }{
	{obs.PhaseCompute, "ml.compute"},
	{obs.PhaseEncode, "grad.encode"},
	{obs.PhaseUpload, "transport.upload"},
	{obs.PhaseWire, "transport.wire"},
}

// traceBreakdown is the per-layer split of a traced window.
type traceBreakdown struct {
	rootUS       map[string]float64 // root phase self time per iteration, µs
	rootShare    map[string]float64 // of the window's wall time
	unattributed float64            // window wall share no root phase covers
	memberUS     map[string]float64 // mean per contributing member, µs
}

// breakdown splits a traced window from its iteration traces (the last n of
// the tracer's ring) and the window's wall time.
func breakdown(traces []obs.IterTrace, wallSeconds float64) traceBreakdown {
	b := traceBreakdown{rootUS: map[string]float64{}, rootShare: map[string]float64{}, memberUS: map[string]float64{}}
	rootSum := map[string]float64{}
	memberSum := map[string]float64{}
	contributions := 0
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			rootSum[sp.Phase] += sp.Seconds
		}
		for _, ms := range tr.Members {
			if ms.Partial {
				continue
			}
			contributions++
			residual := ms.Arrival
			for _, sp := range ms.Spans {
				memberSum[sp.Phase] += sp.Seconds
				residual -= sp.Seconds
			}
			if residual > 0 {
				memberSum[obs.PhaseWire] += residual
			}
		}
	}
	covered := 0.0
	for _, p := range rootPhases {
		b.rootUS[p.layer] = perItem(rootSum[p.phase], len(traces)) * 1e6
		if wallSeconds > 0 {
			b.rootShare[p.layer] = rootSum[p.phase] / wallSeconds
		}
		covered += rootSum[p.phase]
	}
	if wallSeconds > 0 {
		b.unattributed = 1 - covered/wallSeconds
	}
	for _, p := range memberPhases {
		b.memberUS[p.layer] = perItem(memberSum[p.phase], contributions) * 1e6
	}
	return b
}

func perItem(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
