package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
)

// spec is one workload's fixed shape. Everything seed-dependent (data, the
// straggler schedule) is generated by newInputs.
type spec struct {
	name     string
	sharded  bool
	speeds   []float64 // declared relative worker speeds; len = worker count
	k, s     int
	inputDim int
	classes  int
	perPart  int // samples per partition
	sep      float64
	lr       float64
	codec    grad.Codec
	durable  bool // checkpoint directory on (default snapshot cadence)
	// perPartDelay is the declared compute delay per assigned partition of a
	// speed-1 worker; a worker of speed v sleeps perPartDelay/v.
	perPartDelay time.Duration
	// stragglerDelay, when positive, is slept by one seed-chosen worker in
	// one iteration out of ten.
	stragglerDelay time.Duration
	groupSize      int // sharded only
	fanIn          int // sharded only
	// calib is the iteration count of each set-up job, which also sizes the
	// measured window from its rate.
	calib int
	// minWindow is the fewest timed iterations an untraced window keeps, so
	// that p99 has at least ten samples beyond it; workloads whose latency
	// tail is steep keep more, for a steadier p99.
	minWindow int
}

func homogeneous(m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = 1
	}
	return out
}

// workloads is the benchmark's workload table; BENCHMARK.json records why
// each exists.
var workloads = []spec{
	{
		name: "tiny-flat", speeds: homogeneous(5), k: 7, s: 1,
		inputDim: 8, classes: 3, perPart: 24, sep: 0.5, lr: 0.5,
		codec: grad.CodecRaw, calib: 400, minWindow: 1010,
	},
	{
		name: "wide-int8", speeds: homogeneous(5), k: 7, s: 1,
		inputDim: 10000, classes: 10, perPart: 2, sep: 1, lr: 1e-6,
		codec: grad.CodecInt8, calib: 6, minWindow: 1510,
	},
	{
		name: "hetero-durable", speeds: []float64{1, 1, 2, 2, 3, 3, 4, 4}, k: 16, s: 1,
		inputDim: 8, classes: 3, perPart: 8, sep: 0.5, lr: 0.5,
		codec: grad.CodecRaw, durable: true,
		perPartDelay: 4 * time.Millisecond, stragglerDelay: 20 * time.Millisecond,
		calib: 12, minWindow: 2010,
	},
	{
		name: "tiny-sharded", sharded: true, speeds: homogeneous(6), k: 6, s: 1,
		inputDim: 8, classes: 3, perPart: 28, sep: 0.5, lr: 0.5,
		codec: grad.CodecRaw, groupSize: 3, fanIn: 2, calib: 400, minWindow: 1010,
	},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w spec) workers() int { return len(w.speeds) }

func (w spec) model() *ml.Softmax { return &ml.Softmax{InputDim: w.inputDim, NumClasses: w.classes} }

// inputs is everything the program under test receives for one seed: the
// data, its partitions, and the straggler schedule: worker straggler sleeps
// the workload's straggler delay in every iteration with iter%10 == phase.
type inputs struct {
	data      *ml.Dataset
	parts     []*ml.Dataset
	straggler int
	phase     int
}

// stream returns a named random stream of the seed, so one extra draw in
// one consumer never perturbs another.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func newInputs(w spec, seed int64) (*inputs, error) {
	n := w.k * w.perPart
	data := mixture(n, w.inputDim, w.classes, w.sep, stream(seed, "data"))
	parts, err := data.Split(w.k)
	if err != nil {
		return nil, err
	}
	sched := stream(seed, "stragglers")
	return &inputs{data: data, parts: parts, straggler: sched.Intn(w.workers()), phase: sched.Intn(10)}, nil
}

// mixture draws n balanced samples from classes unit-variance Gaussians
// whose means sit at distance sep along distinct axes. The geometry is the
// same for every seed; only the samples vary. Samples come in antithetic
// pairs (mean+z, mean-z), which keeps the trained loss nearly the same
// across seeds at a small sample count.
func mixture(n, dim, classes int, sep float64, rng *rand.Rand) *ml.Dataset {
	d := &ml.Dataset{Features: make([][]float64, n), Labels: make([]float64, n), Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		row := make([]float64, dim)
		if (i/classes)%2 == 1 {
			for j, x := range d.Features[i-classes] {
				row[j] = -x
			}
			row[c%dim] += 2 * sep
		} else {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			row[c%dim] += sep
		}
		d.Features[i], d.Labels[i] = row, float64(c)
	}
	rng.Shuffle(n, func(i, j int) {
		d.Features[i], d.Features[j] = d.Features[j], d.Features[i]
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	})
	return d
}

// delay is worker idx's declared compute delay per assigned partition.
func (w spec) delay(idx int) time.Duration {
	if w.perPartDelay == 0 {
		return 0
	}
	return time.Duration(float64(w.perPartDelay) / w.speeds[idx])
}

// straggles reports whether worker idx sleeps the straggler delay in iter.
func (in *inputs) straggles(w spec, idx, iter int) bool {
	return w.stragglerDelay > 0 && idx == in.straggler && iter%10 == in.phase
}
