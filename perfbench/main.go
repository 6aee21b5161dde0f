// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation against the module's own packages, checks every
// output, and prints each metric by name with its unit; the last line of
// standard output is one JSON result object.
//
//	perfbench --workload serve-write --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - serve-write: the journaled primary (serve.Open defaults) behind
//     serve.NewHTTPServer on loopback, driven open loop.
//   - serve-mixed: the same primary plus one in-process read replica,
//     80% reads to the replica and 20% writes to the primary.
//   - fleet-metro: testdata/scenarios/metro-10k.json run back to back.
//   - train-figs: experiments.RunFig2 plus experiments.RunCostSweep at a
//     reduced episode budget.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing at all. With --trace 1 the run first repeats a shortened
// untraced pass, then a traced pass that times calls into each package's
// public functions from outside (spans kept in memory and written to
// --out at exit); the result then carries the per-layer metrics, the
// tracing overhead and the share of time no span explains.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) (*report, error){
	"serve-write": runServeWrite,
	"serve-mixed": runServeMixed,
	"fleet-metro": runFleet,
	"train-figs":  runTrain,
}

// sizes fixes how much work a run does besides its time budget. full is
// what the benchmark measures; the smoke test shrinks it.
type sizes struct {
	// writeRate and mixedRate are the fixed offered rates (requests/s) of
	// the serving workloads' latency windows, set from the max_qps the
	// ladders found on a two-vCPU x86-64 VM: serve-write 1974–4673/s
	// over twenty seeds (median ~3000/s), serve-mixed 8775–14940/s
	// (median ~9990/s over four seeds, ~14500/s over ten). serve-write
	// runs at about a seventh of its capacity. Every 20th round
	// takes ~6 ms (learner update, checkpoint rotation, fsyncs), and
	// the quotes that arrive meanwhile queue behind it: at 800/s that was
	// 30–40% of them, p50 sat at the knee (one run: p50 0.40 ms, p60
	// 1.1 ms) and moved with the disk's fsync time (run-to-run spread
	// 0.12–0.22); at 400/s about 15% queue, p50 sits among plain quotes
	// (p60 0.32 ms) and the spread was 0.09–0.11. serve-mixed runs at a
	// third to a half of its capacity: its reads take tens of
	// microseconds, and at a tenth the vCPUs idle between requests, so
	// read p50 follows the host's wake-up latency (1000/s: p50 0.24 ms
	// against 0.13 ms at 5000/s, with twice the run-to-run spread).
	writeRate, mixedRate float64
	// window is the length of one latency window, and ladderStep of one
	// max_qps ladder step.
	window, ladderStep time.Duration
	// refresh is the replica's checkpoint refresh cadence.
	refresh time.Duration
	// setups is how many times a run reopens a serving state directory
	// (recover_ms) and the scale of train-figs' set-up count.
	setups int
	// trainEpisodes is the episode budget of every trained agent.
	trainEpisodes int
}

var fullSizes = sizes{
	writeRate:     400,
	mixedRate:     5000,
	window:        250 * time.Millisecond,
	ladderStep:    700 * time.Millisecond,
	refresh:       50 * time.Millisecond,
	setups:        41,
	trainEpisodes: 20,
}

// bench is one invocation's context.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	root     string // checkout root: the module's testdata lives here
	out      string // directory for state dirs and trace files
	sz       sizes
	start    time.Time
	host     hostInfo
	log      io.Writer
	heap     *heapSampler
	tr       *tracer
}

// deadline returns the instant a share of the run's budget, counted from
// the run's start, ends.
func (b *bench) deadline(share float64) time.Time {
	return b.start.Add(time.Duration(share * float64(b.budget)))
}

// logf prints one human-readable line.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, format+"\n", args...)
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 when not a sample statistic
}

// report is a workload run's outcome.
type report struct {
	e2e       []metric // end-to-end metrics (trace 0)
	layers    []metric // per-layer metrics (trace 1)
	attempted int
	failed    int
}

func (r *report) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, unit, v, n})
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: serve-write, serve-mixed, fleet-metro or train-figs")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Int("seconds", 25, "measured time budget of the run, in seconds")
		traceOn  = fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		root     = fs.String("root", ".", "root of the vtmig checkout")
		out      = fs.String("out", ".bench_build/perfbench", "directory for state directories and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traceOn == 1, root: *root, out: *out, sz: fullSizes, log: stdout,
	}
	res, err := execute(b, drive)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload end to end: host record, heap sampling, the
// workload itself, and the metric listing. A failed output check returns
// an error, so no number is ever reported for an incorrect run.
func execute(b *bench, drive func(*bench) (*report, error)) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, fmt.Errorf("creating output directory: %w", err)
	}
	b.host = readHost(b.root, b.out)
	b.logf("perfbench workload=%s seed=%d seconds=%g trace=%t", b.workload, b.seed, b.budget.Seconds(), b.trace)
	b.logf("host nproc=%d gomaxprocs=%d cpu=%q go=%s source=tree:%s commit=%s state_fs=%s",
		b.host.NProc, b.host.GoMaxProcs, b.host.CPU, b.host.GoVersion, b.host.Source, b.host.Commit, b.host.StateFS)
	if b.trace {
		b.tr = newTracer()
	}
	b.heap = startHeapSampler()
	b.start = time.Now()
	rep, err := drive(b)
	peak := b.heap.stop()
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.writeFile(path); err != nil {
			return nil, err
		}
		b.logf("trace %d spans written to %s", b.tr.len(), path)
	}
	if rep.attempted < 1 {
		return nil, errors.New("the workload attempted no operation")
	}
	if rep.failed > 0 {
		return nil, fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	rep.addE2E("peak_heap_mb", "MB", peak, 0)
	if err := complete(b, rep); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]resultValue{}}
	list := rep.e2e
	if b.trace {
		list = rep.layers
		b.logf("end-to-end (shortened untraced pass of this traced run):")
		printMetrics(b, rep.e2e)
		b.logf("per-layer:")
	} else {
		b.logf("end-to-end:")
	}
	printMetrics(b, list)
	b.logf("failed_frac %.6g (failed %d / attempted %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, m := range list {
		res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

func printMetrics(b *bench, ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		line := fmt.Sprintf("  %-30s %14.6g %s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		b.logf("%s", strings.TrimRight(line, " "))
	}
}

// heapSampler tracks the peak live Go heap of a run.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	// from is the first garbage collection cycle whose live heap counts
	// (exclude).
	from uint64
	once sync.Once
	quit chan struct{}
	done chan struct{}
}

// heapSampleEvery is the sampling cadence of the peak-heap reading. It
// reads the live heap the last garbage collection marked, so the peak
// does not depend on when collections happen to run; runtime/metrics
// reads without stopping the world, so sampling does not disturb latency.
const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	h.mu.Lock()
	if s[1].Value.Uint64() >= h.from {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	h.mu.Unlock()
}

// exclude runs f, which builds and drops state the workload does not
// hold (a throwaway set-up), and keeps that state out of the peak: no
// collection that ends while f runs counts, nor the one after it, which
// may have started before f returned.
func (h *heapSampler) exclude(f func() error) error {
	h.sample()
	h.mu.Lock()
	h.from = math.MaxUint64
	h.mu.Unlock()
	err := f()
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	h.mu.Lock()
	h.from = s[0].Value.Uint64() + 2
	h.mu.Unlock()
	return err
}

// stop ends sampling and returns the peak in MB. A workload may stop it
// early, so that a phase whose buffers are the load generator's does not
// count; later calls return the same peak.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() {
		close(h.quit)
		<-h.done
		h.sample()
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
