// Command racebench is the repository's benchmark. It generates its
// inputs from a workload seed, drives the record → decode → replay →
// detect → classify pipeline (plus prediction, static cross-validation
// and the racer serve daemon) through the public entry points, checks
// every verdict against the suite's hand-written ground truth, and prints
// one JSON result line.
//
//	racebench --workload suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a traced
// run, whose spans are recorded from this package around each call into
// a layer and written to the work directory when the run ends. README.md
// lists the workloads, the metrics, and which end-to-end metric each
// layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	rr "repro"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// nproc sizes the analysis pools and the serve client count.
	nproc int
	// work is the directory every file the run writes goes under.
	work string
	// min shrinks the inputs to the smallest size that still exercises
	// every layer (the smoke test).
	min bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("racebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; every scenario and upload seed derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := benchWorkloads[*workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames())
	}
	if *seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	work := os.Getenv("RACEBENCH_WORK")
	if work == "" {
		work = ".bench_build"
	}
	return &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nproc: runtime.NumCPU(), work: work,
	}, nil
}

// A workload builds its state once per set-up; the run then measures it.
type workload struct {
	setups int // set-ups per run; setup_s is their median
	setup  func(c *config) (state, error)
}

// state is one set-up workload, ready to measure.
type state interface {
	// warmup runs the workload once, untimed; its output is checked
	// with the run's.
	warmup() error
	// calibrate alternates bare machine runs and recordings of the
	// workload's programs until the deadline (record_slowdown).
	calibrate(until time.Time, tr *tracer) calibration
	// measure drives the workload until the deadline; tr and reg are
	// nil in an untraced phase.
	measure(until time.Time, tr *tracer, reg *rr.Metrics) (*phase, error)
	// final adds to ph the checks that need the whole run, and
	// describes the input size for the log.
	final(ph *phase) (inputSize string, err error)
	close()
}

// benchWorkloads are the workloads the benchmark runs. Batch set-ups
// only assemble programs, so a run times 15 of them; a serve set-up also
// records an upload corpus and starts a server, so 3.
var benchWorkloads = map[string]workload{
	"suite":   {setups: 15, setup: func(c *config) (state, error) { return setupBatch(c, kindSuite) }},
	"engines": {setups: 15, setup: func(c *config) (state, error) { return setupBatch(c, kindEngines) }},
	"long":    {setups: 15, setup: func(c *config) (state, error) { return setupBatch(c, kindLong) }},
	"serve":   {setups: 3, setup: setupServe},
}

func workloadNames() string {
	names := make([]string, 0, len(benchWorkloads))
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// Shares of the measured seconds. A run first calibrates
// record_slowdown; a traced run then splits the rest into an untraced
// stretch (the overhead baseline), a timed stretch (spans around plain
// layer calls, for busy times) and a counted stretch (the *Instrumented
// calls, for the layers' own counters).
const (
	calibrateShare = 0.10
	untracedShare  = 0.30
	timedShare     = 0.35
)

// run sets up, measures and checks one workload, logging context lines
// to w; the caller prints the result line.
func run(c *config, w io.Writer) (*result, error) {
	wl := benchWorkloads[c.workload]
	host := probeHost(c)
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", c.workload, c.seed, c.seconds, c.trace)

	var setupTimes []float64
	var st state
	for i := 0; i < wl.setups; i++ {
		if st != nil {
			st.close()
		}
		// Each set-up starts from a collected heap, so garbage from the
		// previous one does not land in its time.
		runtime.GC()
		t0 := time.Now()
		s, err := wl.setup(c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		st = s
	}
	defer st.close()
	if ss, ok := st.(*serveState); ok {
		host.ServeDataFS = ss.fsType
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(w, "# host %s\n", hostLine)

	if err := st.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	total := time.Duration(c.seconds * float64(time.Second))
	at := func(share float64) time.Time { return start.Add(time.Duration(share * float64(total))) }

	var tr *tracer
	var reg *rr.Metrics
	if c.trace {
		tr = newTracer()
		reg = rr.NewMetrics()
	}
	cal := st.calibrate(at(calibrateShare), tr)

	var measured, untraced, timed, counted, ph *phase
	var err error
	if c.trace {
		rest := 1 - calibrateShare
		if untraced, err = st.measure(at(calibrateShare+rest*untracedShare), nil, nil); err != nil {
			return nil, err
		}
		if timed, err = st.measure(at(calibrateShare+rest*(untracedShare+timedShare)), tr, nil); err != nil {
			return nil, err
		}
		if counted, err = st.measure(at(1), nil, reg); err != nil {
			return nil, err
		}
		ph = checks(untraced, timed, counted)
	} else {
		if measured, err = st.measure(at(1), nil, nil); err != nil {
			return nil, err
		}
		ph = checks(measured)
	}
	size, err := st.final(ph)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# input %s\n", size)

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Correct = ph.wrong == 0 && ph.failed == 0 && len(ph.problems) == 0
	for _, p := range ph.problems {
		fmt.Fprintf(w, "# check failed: %s\n", p)
	}
	fmt.Fprintf(w, "# checks: %d executions, %d failed, %d wrong verdicts, %d other problems\n",
		ph.attempted, ph.failed, ph.wrong, len(ph.problems))

	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	if !c.trace {
		lat := measured.verdictLatencies()
		put("executions_per_s", measured.rate())
		put("verdict_p50_ms", percentile(lat, 50))
		put("verdict_p99_ms", percentile(lat, 99))
		put("record_slowdown", cal.slowdown())
		put("log_bits_per_instr", measured.logBitsPerInstr())
		put("alloc_mb_per_exec", float64(measured.allocBytes)/1e6/float64(max(measured.executions, 1)))
		put("max_rss_mb", maxRSSMB())
		put("setup_s", median(setupTimes))
		fmt.Fprintf(w, "# samples: %d verdict latencies from the %d least-stolen of %d passes (host CPU steal %.1f%% overall); %d calibration rounds\n",
			len(lat), len(measured.steady()), len(measured.passes), 100*measured.stealShare, cal.rounds)
	} else {
		for name, v := range layerMetrics(tr, reg, cal, untraced, timed, counted) {
			put(name, v)
		}
		path, err := tr.write(c, host)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# spans: %d written to %s\n", tr.len(), path)
	}
	return res, nil
}

// percentile is the nearest-rank percentile of sorted values; +Inf
// entries (failed uploads) count as missing every limit.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	k = min(max(k, 0), len(sorted)-1)
	if math.IsInf(sorted[k], 1) {
		return math.MaxFloat64
	}
	return sorted[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
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
