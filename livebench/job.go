package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/hetgc/hetgc"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/transport"
)

// job is one training run: a root plus in-process workers over loopback
// TCP, driven through the public lifecycle (construct → WaitForWorkers →
// Run). It trains warm+window iterations; the window is a multiple of warm.
type job struct {
	w      spec
	in     *inputs
	seed   int64
	warm   int
	window int
	tel    *obs.Metrics // nil: tracing off
	dir    string       // checkpoint directory ("" unless the workload is durable)
}

func (j job) iterations() int { return j.warm + j.window }

// mark is a snapshot of the process-wide counters at a window boundary.
type mark struct {
	at                time.Time
	cpu               time.Duration
	alloc             uint64
	fin, fout         uint64
	bin, bout, malfmd uint64
}

func takeMark() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fin, fout, bin, bout, _, mal := transport.Wire()
	return mark{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		fin:   fin, fout: fout, bin: bin, bout: bout, malfmd: mal,
	}
}

// jobResult is what one job measured, all from outside the program: the
// window marks, the public result's counters and the final parameters.
type jobResult struct {
	setup  time.Duration // construction until WaitForWorkers returned
	runFor time.Duration // wall time of Run
	params []float64
	iters  int       // iterations completed
	times  []float64 // per-iteration seconds of the timed window
	start  mark      // window boundaries (zero without a window)
	end    mark
	// Counters from the public result, over the whole run.
	replans                              []elastic.ReplanEvent
	skipped, stale, malformed, staleConn int
	fenced, batched                      int
}

// windowProbe is the LossFn hook: the runtimes call it before the first
// iteration and after every warm-th one, so its second call opens the timed
// window and its last call closes it. It returns no loss; loss_final is
// computed from the final parameters.
func (r *jobResult) windowProbe(j job) func([]float64) (float64, error) {
	calls := 0
	last := 1 + j.window/j.warm
	return func([]float64) (float64, error) {
		switch {
		case j.window == 0:
		case calls == 1:
			r.start = takeMark()
		case calls == last:
			r.end = takeMark()
		}
		calls++
		return 0, nil
	}
}

func (j job) run() (*jobResult, error) {
	r := &jobResult{}
	if j.w.sharded {
		return r, j.runSharded(r)
	}
	return r, j.runFlat(r)
}

const (
	iterTimeout = 30 * time.Second
	joinTimeout = 30 * time.Second
)

// workerConfig is worker idx's configuration: its partitions come from the
// generated inputs, its declared delays from the workload.
func (j job) workerConfig(idx int) hetgc.ElasticWorkerConfig {
	cfg := hetgc.ElasticWorkerConfig{
		Model:         j.w.model(),
		PartitionData: func(p int) (*hetgc.Dataset, error) { return j.in.parts[p], nil },
	}
	if d := j.w.delay(idx); d > 0 {
		cfg.DelayPerPartition = func(int) time.Duration { return d }
	}
	if j.w.stragglerDelay > 0 {
		cfg.Delay = func(iter int) time.Duration {
			if j.in.straggles(j.w, idx, iter) {
				return j.w.stragglerDelay
			}
			return 0
		}
	}
	return cfg
}

// fleet dials the workers concurrently and runs each until the root shuts
// it down.
type fleet struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (f *fleet) start(addr string, cfg hetgc.ElasticWorkerConfig) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		w, err := hetgc.DialElasticWorker(addr, cfg)
		if err != nil {
			f.mu.Lock()
			f.errs = append(f.errs, err)
			f.mu.Unlock()
			return
		}
		// A worker's Run ends with the root's shutdown frame or its closed
		// connection; the root's own result decides the job.
		_ = w.Run()
	}()
}

func (f *fleet) dialErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.errs) > 0 {
		return fmt.Errorf("worker dial: %w", f.errs[0])
	}
	return nil
}

func (j job) runFlat(r *jobResult) error {
	model := j.w.model()
	cfg := hetgc.ElasticConfig{
		K: j.w.k, S: j.w.s,
		Model:         model,
		Optimizer:     &hetgc.SGD{LR: j.w.lr},
		InitialParams: model.InitParams(nil),
		Iterations:    j.iterations(),
		SampleCount:   j.in.data.N(),
		IterTimeout:   iterTimeout,
		LossEvery:     j.warm,
		LossFn:        r.windowProbe(j),
		MinWorkers:    j.w.workers(),
		Seed:          j.seed,
	}
	cfg.Wire.Codec = j.w.codec.String()
	cfg.DurabilityConfig.CheckpointDir = j.dir
	cfg.TelemetryConfig.Obs = j.tel

	var f fleet
	defer f.wg.Wait()
	t0 := time.Now()
	ma, err := hetgc.NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		return err
	}
	for idx := 0; idx < j.w.workers(); idx++ {
		f.start(ma.Addr(), j.workerConfig(idx))
	}
	if err := ma.WaitForWorkers(joinTimeout); err != nil {
		ma.Close()
		f.wg.Wait()
		if derr := f.dialErr(); derr != nil {
			return derr
		}
		return err
	}
	r.setup = time.Since(t0)
	t1 := time.Now()
	res, err := ma.Run()
	r.runFor = time.Since(t1)
	if err != nil {
		return err
	}
	r.params, r.iters = res.Params, len(res.IterTimes)
	r.times = res.IterTimes[j.warm:]
	r.replans = res.Replans
	r.skipped, r.stale, r.malformed = res.StragglersSkipped, res.StaleEpochRejected, res.MalformedSkipped
	r.staleConn, r.fenced = res.StaleConnRejected, res.FencedUploads
	return nil
}

func (j job) runSharded(r *jobResult) error {
	model := j.w.model()
	cfg := hetgc.ShardedConfig{
		K: j.w.k, S: j.w.s, GroupSize: j.w.groupSize, FanIn: j.w.fanIn,
		Throughputs:   j.w.speeds,
		Model:         model,
		Optimizer:     &hetgc.SGD{LR: j.w.lr},
		InitialParams: model.InitParams(nil),
		Iterations:    j.iterations(),
		SampleCount:   j.in.data.N(),
		IterTimeout:   iterTimeout,
		LossEvery:     j.warm,
		LossFn:        r.windowProbe(j),
		Seed:          j.seed,
	}
	cfg.Wire.Codec = j.w.codec.String()
	cfg.DurabilityConfig.CheckpointDir = j.dir
	cfg.TelemetryConfig.Obs = j.tel

	var f fleet
	defer f.wg.Wait()
	t0 := time.Now()
	root, err := hetgc.NewShardedRoot(cfg, "127.0.0.1:0")
	if err != nil {
		return err
	}
	addrs := root.GroupAddrs()
	for g, grp := range root.Plan().Groups {
		for _, idx := range grp.Workers {
			f.start(addrs[g], j.workerConfig(idx))
		}
	}
	if err := root.WaitForWorkers(joinTimeout); err != nil {
		root.Close()
		f.wg.Wait()
		if derr := f.dialErr(); derr != nil {
			return derr
		}
		return err
	}
	r.setup = time.Since(t0)
	t1 := time.Now()
	res, err := root.Run()
	r.runFor = time.Since(t1)
	if err != nil {
		return err
	}
	r.params, r.iters = res.Params, len(res.IterTimes)
	r.times = res.IterTimes[j.warm:]
	r.fenced, r.batched = res.FencedSums, res.BatchedFrames
	for _, gs := range res.Groups {
		r.replans = append(r.replans, gs.Replans...)
		r.skipped += gs.StragglersSkipped
		r.stale += gs.StaleEpochRejected
		r.malformed += gs.MalformedSkipped
		r.staleConn += gs.StaleConnRejected
		r.fenced += gs.FencedRejected
	}
	return nil
}
