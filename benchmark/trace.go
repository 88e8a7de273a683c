package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	rr "repro"
)

// span is one timed call into a layer, recorded from this package.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 for a root
	item   int32 // execution (or upload) index within its pass, -1 if none
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer keeps every span of a traced run in memory. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int32, item int) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, item: int32(item), start: now, end: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover (children may overlap each other when
// they ran on different workers).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.end >= 0 {
				iv = append(iv, [2]int64{max(cs.start, s.start), min(cs.end, s.end)})
			}
		}
		self[s.name] += time.Duration(s.end - s.start - covered(iv))
	}
	return self
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	curE = -1
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if v[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// serialShare is the share of the root spans' (passes' or uploads')
// wall time during which at most one of the named spans was running:
// the part of a pass no second worker shortened.
func (t *tracer) serialShare(roots string, work map[string]bool) float64 {
	type ev struct {
		at    int64
		delta int
	}
	var evs []ev
	var rootIv [][2]int64
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		switch {
		case s.name == roots && s.parent < 0:
			rootIv = append(rootIv, [2]int64{s.start, s.end})
		case work[s.name]:
			evs = append(evs, ev{s.start, 1}, ev{s.end, -1})
		}
	}
	wall := covered(rootIv)
	if wall == 0 {
		return 0
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta < evs[b].delta
	})
	// Time with two or more work spans running, within the roots.
	var parallel, since int64
	active := 0
	for _, e := range evs {
		if active >= 2 {
			parallel += e.at - since
		}
		active += e.delta
		since = e.at
	}
	return 1 - float64(parallel)/float64(wall)
}

// write dumps the spans as JSON into the work directory.
func (t *tracer) write(c *config, host hostInfo) (string, error) {
	dir := filepath.Join(c.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type jspan struct {
		ID     int32  `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Item   int32  `json:"item"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	out := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Host     hostInfo `json:"host"`
		Spans    []jspan  `json:"spans"`
	}{Workload: c.workload, Seed: c.seed, Host: host}
	for i, s := range t.spans {
		out.Spans = append(out.Spans, jspan{int32(i), s.name, s.parent, s.item, s.start, s.end})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, c.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// Layer of each span name, for the per-layer busy times.
var layerOf = map[string]string{
	"record":             "record",
	"encode":             "trace.encode",
	"decode":             "trace.decode",
	"replay":             "replay",
	"detect":             "detect",
	"classify":           "classify",
	"classify.predicted": "classify",
	"predict":            "predict",
	"static":             "static",
	"machine":            "machine",
	"pass":               "driver",
	"analyze":            "driver",
	"exec":               "driver",
	"fastpath":           "driver",
	"merge":              "driver",
	"render":             "driver",
	"ingest":             "serve.ingest",
	"wait":               "serve.wait",
}

// Spans of work that can run in parallel, for driver.serial_share.
var parallelWork = map[string]bool{
	"record": true, "encode": true, "decode": true, "replay": true, "detect": true,
	"classify": true, "classify.predicted": true, "predict": true, "static": true,
	"fastpath": true, "merge": true, "render": true, "ingest": true, "wait": true,
}

// layerMetrics derives the per-layer metrics of a traced run: busy
// (self) times per execution (per upload on serve) from the timed
// stretch's spans, counters per execution from the counted stretch,
// ratios of the two, and the tracing overhead against the untraced
// stretch.
func layerMetrics(tr *tracer, reg *rr.Metrics, cal calibration, untraced, timed, counted *phase) map[string]float64 {
	snap := reg.Snapshot()
	perExec := float64(max(counted.executions, 1))
	cnt := func(name string) float64 { return float64(snap.Counters[name]) / perExec }
	gauge := func(name string) float64 { return snap.Gauges[name] }
	ex := float64(max(timed.executions, 1))
	self := map[string]float64{} // layer -> ms
	for name, d := range tr.selfTimes() {
		if l, ok := layerOf[name]; ok {
			self[l] += float64(d) / 1e6
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"machine.ns_per_instr": ratio(self["machine"]*1e6, float64(cal.instr)),

		"record.busy_ms":      self["record"] / ex,
		"record.ns_per_instr": ratio(self["record"]*1e6, float64(timed.instr)),

		"detect.online.pairs_checked": cnt("detect.online.pairs_checked"),
		"detect.online.hb_pruned":     cnt("detect.online.hb_pruned"),
		"detect.online.window_peak":   gauge("detect.online.window_peak"),
		"detect.online.fastpath":      cnt("detect.online.fastpath"),

		"trace.encode_ms":       self["trace.encode"] / ex,
		"trace.decode_ms":       self["trace.decode"] / ex,
		"trace.decode_mb_per_s": ratio(float64(timed.wireBytes)/1e6, self["trace.decode"]/1e3),

		"replay.busy_ms":      self["replay"] / ex,
		"replay.ns_per_instr": ratio(self["replay"]/ex*1e6, cnt("replay.instructions")),
		"replay.regions":      cnt("replay.regions"),

		"detect.busy_ms":                  self["detect"] / ex,
		"detect.region_pairs_examined":    cnt("detect.region_pairs_examined"),
		"detect.region_pairs_conflicting": cnt("detect.region_pairs_conflicting"),
		"detect.pair_yield":               ratio(cnt("detect.region_pairs_conflicting"), cnt("detect.region_pairs_examined")),

		"classify.busy_ms":         self["classify"] / ex,
		"classify.us_per_instance": ratio(self["classify"]/ex*1e3, cnt("classify.instances_total")),
		"vproc.order_replays":      cnt("vproc.order_replays"),
		"classify.memo.hits":       cnt("classify.memo.hits"),
		"classify.memo.misses":     cnt("classify.memo.misses"),
		"classify.memo_hitrate":    ratio(cnt("classify.memo.hits"), cnt("classify.memo.hits")+cnt("classify.memo.misses")),

		"predict.busy_ms":        self["predict"] / ex,
		"predict.pairs_screened": cnt("predict.pairs_screened"),
		"predict.candidates":     cnt("predict.candidates"),
		"predict.new_races":      float64(counted.newRaces) / perExec,
		"static.busy_ms":         self["static"] / ex,
		"static.candidates":      cnt("static.candidates"),

		"sched.worker_utilization": ratio(cnt("sched.worker_busy_ns"), cnt("sched.worker_busy_ns")+cnt("sched.worker_idle_ns")),
		"sched.queue_peak":         gauge("sched.queue_peak"),
		"driver.busy_ms":           self["driver"] / ex,
		"driver.serial_share":      tr.serialShare(rootName(timed), parallelWork),

		"go.gc_cycles":   float64(timed.gcCycles) / ex,
		"go.gc_pause_ms": float64(timed.gcPauseNs) / 1e6 / ex,

		"bench.untraced_executions_per_s": untraced.rate(),
		"bench.traced_executions_per_s":   timed.rate(),
		"bench.counted_executions_per_s":  counted.rate(),
	}
	m["bench.tracing_overhead"] = ratio(m["bench.untraced_executions_per_s"], m["bench.traced_executions_per_s"]) - 1
	if timed.uploads {
		m["serve.ingest_ms"] = self["serve.ingest"] / ex
		m["serve.wait_ms"] = self["serve.wait"] / ex
		m["serve.backpressure_429"] = cnt("serve.backpressure_429")
		m["memostore.hits"] = cnt("memostore.hits")
		m["memostore.misses"] = cnt("memostore.misses")
	}
	return m
}

// rootName is the span that spans one unit of work: a pass of a batch
// workload, an upload of serve.
func rootName(p *phase) string {
	if p.uploads {
		return "upload"
	}
	return "pass"
}

// units gives every metric the benchmark emits its unit; BENCHMARK.json
// lists the same names and units. Per-layer counts and busy times are
// per execution (per upload on serve).
var units = map[string]string{
	"executions_per_s":   "1/s",
	"verdict_p50_ms":     "ms",
	"verdict_p99_ms":     "ms",
	"record_slowdown":    "x",
	"log_bits_per_instr": "bits/instr",
	"alloc_mb_per_exec":  "MB/exec",
	"max_rss_mb":         "MB",
	"setup_s":            "s",

	"machine.ns_per_instr":            "ns/instr",
	"record.busy_ms":                  "ms/exec",
	"record.ns_per_instr":             "ns/instr",
	"detect.online.pairs_checked":     "1/exec",
	"detect.online.hb_pruned":         "1/exec",
	"detect.online.window_peak":       "count",
	"detect.online.fastpath":          "1/exec",
	"trace.encode_ms":                 "ms/exec",
	"trace.decode_ms":                 "ms/exec",
	"trace.decode_mb_per_s":           "MB/s",
	"replay.busy_ms":                  "ms/exec",
	"replay.ns_per_instr":             "ns/instr",
	"replay.regions":                  "1/exec",
	"detect.busy_ms":                  "ms/exec",
	"detect.region_pairs_examined":    "1/exec",
	"detect.region_pairs_conflicting": "1/exec",
	"detect.pair_yield":               "ratio",
	"classify.busy_ms":                "ms/exec",
	"classify.us_per_instance":        "us",
	"vproc.order_replays":             "1/exec",
	"classify.memo.hits":              "1/exec",
	"classify.memo.misses":            "1/exec",
	"classify.memo_hitrate":           "ratio",
	"predict.busy_ms":                 "ms/exec",
	"predict.pairs_screened":          "1/exec",
	"predict.candidates":              "1/exec",
	"predict.new_races":               "1/exec",
	"static.busy_ms":                  "ms/exec",
	"static.candidates":               "1/exec",
	"sched.worker_utilization":        "ratio",
	"sched.queue_peak":                "count",
	"driver.busy_ms":                  "ms/exec",
	"driver.serial_share":             "ratio",
	"serve.ingest_ms":                 "ms/exec",
	"serve.wait_ms":                   "ms/exec",
	"serve.backpressure_429":          "1/exec",
	"memostore.hits":                  "1/exec",
	"memostore.misses":                "1/exec",
	"go.gc_cycles":                    "1/exec",
	"go.gc_pause_ms":                  "ms/exec",
	"bench.untraced_executions_per_s": "1/s",
	"bench.traced_executions_per_s":   "1/s",
	"bench.counted_executions_per_s":  "1/s",
	"bench.tracing_overhead":          "ratio",
}
