// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload on Network 𝒩 (core.DefaultParams(3): n = 64, 5,760
// switches, 41,984 edges) for a fixed wall-clock time, checks the outputs
// against the sequential reference paths, and prints one JSON line:
//
//	go build -o perfbench . && ./perfbench --workload theorem2 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown from a traced replay of the same
// work (see README.md for every metric and the layer it belongs to). The
// exit code is 0 only when every output check passed.
//
// The program drives the internal packages from outside them with one
// load-generating goroutine, and derives every input from --seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics a run prints with --trace 0 and
// --trace 1; BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_us_mean", "us"},
	{"op_us_p99", "us"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"trace.op_us", "us"},
	{"trace.root.self_share", "share"},
	{"allocs_per_op", "count"},
	{"fault.inject.share", "share"},
	{"fault.inject.failures", "count"},
	{"fault.witness.share", "share"},
	{"core.maskupdate.share", "share"},
	{"core.maskupdate.vertex_flips", "count"},
	{"core.maskupdate.edge_entries", "count"},
	{"core.certificate.share", "share"},
	{"core.certificate.pass_share", "share"},
	{"route.guide.share", "share"},
	{"route.guide.full_rebuild_share", "share"},
	{"route.connect.share", "share"},
	{"route.connect.batches", "count"},
	{"route.disconnect.share", "share"},
	{"route.reset.share", "share"},
	{"route.fastpath_share", "share"},
	{"route.fallbacks", "count"},
	{"route.prefilter.sweeps", "count"},
	{"route.prefilter.rejects_per_sweep", "ratio"},
	{"route.rejects.endpoint_share", "share"},
	{"route.rejects.probe_share", "share"},
	{"route.rejects.prefilter_share", "share"},
	{"route.rejects.commit_share", "share"},
	{"netsim.churn.self_share", "share"},
	{"netsim.source.share", "share"},
	{"netsim.serve.self_share", "share"},
	{"netsim.serve.behind_p99", "count"},
	{"netsim.serve.reject_share", "share"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    uint64
	measure time.Duration // wall time of the measured phase(s)
	trace   bool
	setups  int    // set-up repetitions; setup_s is their median
	spans   string // file the traced run writes its spans to ("" = none)
	log     io.Writer
}

var workloads = map[string]func(config) (result, error){
	"theorem2":    runTheorem2,
	"certificate": runCertificate,
	"serve":       runServe,
}

// newResult fills a result from the measured values, which must cover
// exactly the metric set the run mode declares.
func newResult(cfg config, attempted, failed int64, values map[string]float64) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if len(values) != len(defs) {
		panic(fmt.Sprintf("perfbench: %d metric values for %d declared metrics", len(values), len(defs)))
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " not measured")
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// measureSetup runs build n times, timing each, and returns the median
// set-up time at reference host speed with the last build's product;
// earlier products are handed to discard. A forced collection before each
// build keeps the previous builds' garbage out of the timing.
func measureSetup[T any](n int, hc *hostClock, build func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(t0).Seconds()*hc.scale())
		last = v
	}
	runtime.GC()
	return median(secs), last, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeap is the live Go heap in bytes after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: theorem2|certificate|serve")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 10, "wall-clock seconds the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload theorem2|certificate|serve, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		setups:  25,
		log:     os.Stderr,
	}
	if cfg.trace {
		cfg.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s.tsv", *workload)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their output check\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
