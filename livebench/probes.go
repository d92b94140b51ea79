package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/transport"
)

// probeBudget is the wall time each layer probe measures for.
const probeBudget = 150 * time.Millisecond

// perCall times fn in batches until the budget is spent and returns the
// median batch's seconds per call. Batches grow until one lasts a
// millisecond, so timer overhead stays out of fast calls.
func perCall(budget time.Duration, fn func() error) (float64, error) {
	batch := 1
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		samples = append(samples, d.Seconds()/float64(batch))
		if d < time.Millisecond && batch < 1<<20 {
			batch *= 2
			samples = samples[:0]
		}
	}
	return median(samples), nil
}

// probes times calls into each layer's public functions at the workload's
// own shapes and returns the per-layer probe metrics.
func probes(w spec, in *inputs, seed int64, scratch string) (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	model := w.model()
	dim := model.Dim()

	// core: plan construction on the workload's declared speeds, and cold
	// decodes of every single-straggler pattern on a fresh strategy.
	var st *core.Strategy
	build := func() error {
		if w.sharded {
			plan, err := shard.BuildPlan(w.speeds, shard.PlanConfig{K: w.k, S: w.s, GroupSize: w.groupSize, FanIn: w.fanIn}, rng)
			if err != nil {
				return err
			}
			st = plan.Groups[0].Strategy
			return nil
		}
		var err error
		st, err = planner.BuildStrategy(core.HeterAware, w.speeds, w.k, w.s, rng)
		return err
	}
	sec, err := perCall(probeBudget, build)
	if err != nil {
		return nil, fmt.Errorf("plan build probe: %w", err)
	}
	out["core.plan_build_ms"] = sec * 1e3
	m := st.M()
	var decodeSamples []float64
	for t0 := time.Now(); len(decodeSamples) < 5 || time.Since(t0) < probeBudget; {
		if err := build(); err != nil {
			return nil, err
		}
		start := time.Now()
		for straggler := 0; straggler < m; straggler++ {
			if _, err := st.Decode(core.AliveFromStragglers(m, []int{straggler})); err != nil {
				return nil, fmt.Errorf("decode probe: %w", err)
			}
		}
		decodeSamples = append(decodeSamples, time.Since(start).Seconds()/float64(m))
	}
	out["core.decode_cold_us"] = median(decodeSamples) * 1e6

	// grad: worker 0's encode, the root's combine over m-s uploads, and the
	// workload's codec in both directions.
	vec := func() grad.Gradient {
		g := make(grad.Gradient, dim)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		return g
	}
	row := st.Row(0)
	var coeffs []float64
	var partials []grad.Gradient
	for _, c := range row {
		if c != 0 {
			coeffs = append(coeffs, c)
			partials = append(partials, vec())
		}
	}
	dst := make(grad.Gradient, dim)
	if sec, err = perCall(probeBudget, func() error { return grad.EncodeInto(dst, coeffs, partials) }); err != nil {
		return nil, fmt.Errorf("encode probe: %w", err)
	}
	out["grad.encode_probe_us"] = sec * 1e6
	coded := make([]grad.Gradient, m-w.s)
	combine := make([]float64, m-w.s)
	for i := range coded {
		coded[i], combine[i] = vec(), rng.Float64()
	}
	if sec, err = perCall(probeBudget, func() error { return grad.CombineInto(dst, combine, coded) }); err != nil {
		return nil, fmt.Errorf("combine probe: %w", err)
	}
	out["grad.combine_probe_us"] = sec * 1e6
	payload, err := grad.AppendQuantized(nil, w.codec, dst)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(payload))
	if sec, err = perCall(probeBudget, func() error {
		_, err := grad.AppendQuantized(buf[:0], w.codec, dst)
		return err
	}); err != nil {
		return nil, fmt.Errorf("quant probe: %w", err)
	}
	out["grad.quant_us"] = sec * 1e6
	if sec, err = perCall(probeBudget, func() error {
		_, err := grad.Dequantize(w.codec, payload, dim)
		return err
	}); err != nil {
		return nil, fmt.Errorf("dequant probe: %w", err)
	}
	out["grad.dequant_us"] = sec * 1e6

	// transport: the workload's gradient envelope sent and received over a
	// loopback connection pair, one frame in flight.
	env := &transport.Envelope{Type: transport.MsgGradient, Iter: 1, WorkerID: 1}
	if w.codec == grad.CodecRaw {
		env.Vector = dst
	} else {
		env.Codec, env.Quant, env.QuantLen = byte(w.codec), payload, dim
	}
	rt, kb, err := roundTrip(env)
	if err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	out["transport.roundtrip_us"], out["transport.alloc_kb_per_frame"] = rt*1e6, kb

	// checkpoint: journal appends and snapshots of the workload's params.
	appendSec, snapSec, err := persistProbe(filepath.Join(scratch, "probe-ckpt"), dst, m)
	if err != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	out["checkpoint.append_us"], out["checkpoint.snapshot_ms"] = appendSec*1e6, snapSec*1e3

	// ml: one partition's gradient.
	params := vec()
	if sec, err = perCall(probeBudget, func() error {
		_, err := model.Gradient(params, in.parts[0])
		return err
	}); err != nil {
		return nil, fmt.Errorf("gradient probe: %w", err)
	}
	out["ml.gradient_us"] = sec * 1e6
	return out, nil
}

// roundTrip returns the seconds per Send+Recv of env over a loopback
// connection pair and the KiB both ends allocate per frame.
func roundTrip(env *transport.Envelope) (float64, float64, error) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer lis.Close()
	accepted := make(chan *transport.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	tx, err := transport.Dial(lis.Addr(), 5*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer tx.Close()
	var rx *transport.Conn
	select {
	case rx = <-accepted:
	case err := <-acceptErr:
		return 0, 0, err
	}
	defer rx.Close()

	got := make(chan error)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, err := rx.Recv()
			select {
			case got <- err:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() { close(stop); _ = rx.Close(); <-done }()
	one := func() error {
		if err := tx.Send(env); err != nil {
			return err
		}
		return <-got
	}
	for i := 0; i < 3; i++ { // the first frames carry the gob type descriptors
		if err := one(); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames := 0
	sec, err := perCall(probeBudget, func() error { frames++; return one() })
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	return sec, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(frames), nil
}

// persistProbe returns the seconds per journal append and per snapshot of
// params on a fresh store in dir, which it removes afterwards.
func persistProbe(dir string, params []float64, members int) (float64, float64, error) {
	defer os.RemoveAll(dir)
	store, err := checkpoint.Create(dir)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	iter := 0
	appendSec, err := perCall(probeBudget, func() error { iter++; return store.AppendIter(iter, 0, iter) })
	if err != nil {
		return 0, 0, err
	}
	ids := make([]int, members)
	for i := range ids {
		ids[i] = i + 1
	}
	snapSec, err := perCall(probeBudget, func() error {
		iter++
		return store.WriteSnapshot(&checkpoint.Snapshot{
			Iter: iter, Step: iter, Params: params,
			Groups: []checkpoint.GroupState{{Group: 0, Epoch: 0, Members: ids}},
		})
	})
	return appendSec, snapSec, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
