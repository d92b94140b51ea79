// Command livebench is the repository's end-to-end benchmark: it runs real
// hetgc training jobs in one process over loopback TCP — a root plus
// in-process workers — and reports iteration throughput, latency, CPU,
// allocation and wire cost per iteration, with per-layer attribution from
// the runtime's own counters, its iteration traces and timed calls into
// each layer. Every job is checked against a single-worker full-batch
// gradient-descent reference.
//
// Run from the repository root:
//
//	bash livebench/run.sh --workload tiny-flat --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics; the last line of standard output is one JSON object.
// LAYERS.md maps each per-layer metric to the end-to-end metrics it moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "seconds each measured window lasts")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	compare := flag.Bool("compare", false, "compare two saved outputs given as arguments (old new)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "livebench -compare OLD NEW")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "livebench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookup(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "livebench: --workload NAME --seed N --seconds S --trace 0|1:", err)
		os.Exit(2)
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// session runs a workload's jobs for one seed and keeps the run's
// accounting: attempts, failures and the correctness verdict.
type session struct {
	w         spec
	in        *inputs
	seed      int64
	ref       *reference
	scratch   string
	out       io.Writer
	jobs      int
	attempted int
	failed    int
	gateErrs  []error
}

// run executes one job, checks it against the reference and accounts for
// its iteration attempts. A job that errors fails the run outright; one
// that fails the gate is reported through correct=false.
func (s *session) run(j job) (*jobResult, error) {
	j.w, j.in, j.seed = s.w, s.in, s.seed
	if s.w.durable {
		j.dir = filepath.Join(s.scratch, fmt.Sprintf("job-%d", s.jobs))
		defer os.RemoveAll(j.dir)
	}
	s.jobs++
	s.attempted += j.iterations()
	r, err := j.run()
	if err != nil {
		s.failed += j.iterations()
		return nil, fmt.Errorf("%s job %d: %w", s.w.name, s.jobs, err)
	}
	// A churn replan after the initial plan is a forced re-plan: the
	// iteration it interrupted is attempted again.
	for _, ev := range r.replans {
		if ev.Reason == "churn" {
			s.attempted++
			s.failed++
		}
	}
	ref, err := s.ref.at(r.iters)
	if err != nil {
		return nil, err
	}
	if err := gate(s.w, s.in, r.params, ref); err != nil {
		s.failed += r.iters
		s.gateErrs = append(s.gateErrs, fmt.Errorf("job %d: %w", s.jobs, err))
	}
	return r, nil
}

// warmSeconds is the warm-up each measured job runs before its window.
const warmSeconds = 0.5

// maxWindowSeconds caps a window stretched to reach its minimum sample
// count, so a run always ends well inside its time limit.
const maxWindowSeconds = 60

// size picks warm-up and window iteration counts for a measured rate.
func size(rate, seconds float64, minWindow, warmMin int) (warm, window int) {
	warm = int(math.Max(float64(warmMin), math.Ceil(rate*warmSeconds)))
	want := math.Max(rate*seconds, float64(minWindow))
	want = math.Min(want, math.Max(rate*maxWindowSeconds, 1))
	window = int(math.Ceil(want/float64(warm))) * warm
	return warm, window
}

// setupJobs is how many short jobs each run sets up; setup_s is the median
// of their set-up times and the measured job's.
const setupJobs = 8

// calibrate runs n short jobs and returns their set-up times and the median
// rate of their Run calls.
func (s *session) calibrate(n int) ([]float64, float64, error) {
	var setups, rates []float64
	for i := 0; i < n; i++ {
		r, err := s.run(job{warm: s.w.calib})
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.iters)/r.runFor.Seconds())
	}
	return setups, median(rates), nil
}

func bench(w spec, seed int64, seconds float64, traced bool, out io.Writer) (*result, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(".bench_build", fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	s := &session{w: w, in: in, seed: seed, ref: newReference(w, in), scratch: scratch, out: out}

	fp := fingerprint()
	fp.Workload, fp.Seed, fp.Seconds, fp.Trace = w.name, seed, seconds, traced
	if err := printFingerprint(out, fp); err != nil {
		return nil, err
	}

	var metrics map[string]metric
	if traced {
		metrics, err = s.perLayer(seconds)
	} else {
		metrics, err = s.endToEnd(seconds)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range s.gateErrs {
		fmt.Fprintln(out, "correctness gate failed:", e)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return &result{Correct: len(s.gateErrs) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}, nil
}

// endToEnd measures the untraced metrics: set-up time over several jobs,
// then one job with a timed window after warm-up.
func (s *session) endToEnd(seconds float64) (map[string]metric, error) {
	setups, rate, err := s.calibrate(setupJobs)
	if err != nil {
		return nil, err
	}
	warm, window := size(rate, seconds, s.w.minWindow, s.w.calib)
	r, err := s.run(job{warm: warm, window: window})
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setup.Seconds())
	loss, err := ml.MeanLoss(s.w.model(), r.params, s.in.data)
	if err != nil {
		return nil, err
	}
	n := float64(window)
	win := r.end.at.Sub(r.start.at).Seconds()
	sorted := append([]float64(nil), r.times...)
	sort.Float64s(sorted)
	fmt.Fprintf(s.out, "window: %d timed iterations after %d warm-up; p99 leaves %d samples beyond it\n",
		window, warm, window-rank(window, 0.99))
	return map[string]metric{
		"iter_per_s":        {n / win, "1/s"},
		"iter_p50_ms":       {sorted[rank(window, 0.50)-1] * 1e3, "ms"},
		"iter_p99_ms":       {sorted[rank(window, 0.99)-1] * 1e3, "ms"},
		"cpu_ms_per_iter":   {(r.end.cpu - r.start.cpu).Seconds() * 1e3 / n, "ms"},
		"alloc_kb_per_iter": {float64(r.end.alloc-r.start.alloc) / 1024 / n, "KiB"},
		"wire_kb_per_iter":  {float64(r.end.bin-r.start.bin+r.end.bout-r.start.bout) / 1024 / n, "KiB"},
		"setup_s":           {median(setups), "s"},
		"loss_final":        {loss, "nats"},
	}, nil
}

// rank is the nearest-rank position (1-based) of quantile q among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// perLayer measures the per-layer metrics: counters from an untraced job,
// phase times from a separate traced job, and the layer probes.
func (s *session) perLayer(seconds float64) (map[string]metric, error) {
	_, rate, err := s.calibrate(2)
	if err != nil {
		return nil, err
	}
	half := seconds / 2
	warm, window := size(rate, half, 0, s.w.calib)
	plain, err := s.run(job{warm: warm, window: window})
	if err != nil {
		return nil, err
	}
	out := counters(s.w, plain, warm, window)
	plainRate := float64(window) / plain.end.at.Sub(plain.start.at).Seconds()

	// The traced job attaches the runtime's standard telemetry families with
	// a trace ring that holds its whole window; the window is capped so the
	// ring stays small.
	if window > maxTracedWindow {
		window = maxTracedWindow / warm * warm
		if window == 0 {
			window = warm
		}
	}
	tel := obs.NewWith(obs.NewRegistry(), obs.NewJournal(0), obs.NewTracer(window))
	tr, err := s.run(job{warm: warm, window: window, tel: tel})
	if err != nil {
		return nil, err
	}
	wall := tr.end.at.Sub(tr.start.at).Seconds()
	b := breakdown(tel.Tracer().Recent(window), wall)
	for _, p := range rootPhases {
		out[p.layer+"_us"] = metric{b.rootUS[p.layer], "us"}
		out[p.layer+"_share"] = metric{b.rootShare[p.layer], "ratio"}
	}
	out["roster.unattributed_share"] = metric{b.unattributed, "ratio"}
	for _, p := range memberPhases {
		out[p.layer+"_us"] = metric{b.memberUS[p.layer], "us"}
	}
	out["core.decode_cache_hit_ratio"] = metric{tel.CacheHitRatio.Value(), "ratio"}
	out["obs.trace_overhead_ratio"] = metric{float64(window) / wall / plainRate, "ratio"}

	pr, err := probes(s.w, s.in, s.seed, s.scratch)
	if err != nil {
		return nil, err
	}
	for name, unit := range probeUnits {
		out[name] = metric{pr[name], unit}
	}
	out["ml.reference_iter_per_s"] = metric{s.ref.rate(), "1/s"}
	out["iter_fail_ratio"] = metric{float64(s.failed) / float64(s.attempted), "ratio"}
	return out, nil
}

// maxTracedWindow bounds the traced window's iteration count (and so the
// trace ring's memory).
const maxTracedWindow = 16384

var probeUnits = map[string]string{
	"core.plan_build_ms":           "ms",
	"core.decode_cold_us":          "us",
	"grad.encode_probe_us":         "us",
	"grad.combine_probe_us":        "us",
	"grad.quant_us":                "us",
	"grad.dequant_us":              "us",
	"transport.roundtrip_us":       "us",
	"transport.alloc_kb_per_frame": "KiB",
	"checkpoint.append_us":         "us",
	"checkpoint.snapshot_ms":       "ms",
	"ml.gradient_us":               "us",
}

// counters are the exact per-layer counts of an untraced job: the wire
// deltas over its window and the public result's counters over its run.
func counters(w spec, r *jobResult, warm, window int) map[string]metric {
	n := float64(window)
	iters := float64(r.iters)
	var drift, churn float64
	for _, ev := range r.replans {
		if ev.Iter < warm {
			continue
		}
		switch ev.Reason {
		case "drift":
			drift++
		case "churn":
			churn++
		}
	}
	// Every worker uploads once per iteration; the uploads not decoded are
	// the ones the roster skipped or rejected.
	received := float64(w.workers()) * iters
	wasted := float64(r.skipped + r.stale + r.malformed + r.staleConn + r.fenced)
	return map[string]metric{
		"transport.frames_per_iter":          {float64(r.end.fin-r.start.fin+r.end.fout-r.start.fout) / n, "frames"},
		"transport.bytes_out_per_iter":       {float64(r.end.bout-r.start.bout) / n, "B"},
		"transport.bytes_in_per_iter":        {float64(r.end.bin-r.start.bin) / n, "B"},
		"transport.malformed":                {float64(r.end.malfmd - r.start.malfmd), "count"},
		"elastic.drift_replans_per_kiter":    {drift * 1000 / n, "1/kiter"},
		"elastic.churn_replans_per_kiter":    {churn * 1000 / n, "1/kiter"},
		"roster.useful_upload_ratio":         {(received - wasted) / received, "ratio"},
		"roster.stragglers_skipped_per_iter": {float64(r.skipped) / iters, "count"},
		"roster.stale_epoch_rejected":        {float64(r.stale), "count"},
		"shard.batched_frames_per_iter":      {float64(r.batched) / iters, "frames"},
	}
}
