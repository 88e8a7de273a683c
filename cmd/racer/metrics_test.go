package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	racereplay "repro"
)

// extractJSON pulls the metrics JSON document out of captured output.
func extractJSON(t *testing.T, out string) racereplay.MetricsSnapshot {
	t.Helper()
	_, body, found := strings.Cut(out, "--- metrics ---")
	if !found {
		t.Fatalf("no metrics section in output:\n%s", out)
	}
	var snap racereplay.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, body)
	}
	return snap
}

// TestSuiteMetricsJSON is the pipeline-wide acceptance check: one suite
// run must produce nonzero counters for every stage and span timings
// that reproduce the cumulative §5.1 ladder.
func TestSuiteMetricsJSON(t *testing.T) {
	out := capture(t, func() error { return cmdSuite([]string{"-metrics=json"}) })
	snap := extractJSON(t, out)

	// Every pipeline stage must have reported in.
	for _, c := range []string{
		"record.executions", "record.instructions", "record.loads_logged",
		"replay.executions", "replay.regions", "replay.loads_injected",
		"detect.executions", "detect.region_pairs_examined", "detect.races",
		"classify.executions", "classify.instances_total", "classify.races",
		"report.scenarios", "report.unique_races", "report.instances",
		"native.executions",
		"machine.loads", "machine.sequencers",
		"vproc.instances_analyzed", "vproc.order_replays",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s is zero after a suite run", c)
		}
	}
	if snap.Counters["record.loads_total"] !=
		snap.Counters["record.loads_logged"]+snap.Counters["record.loads_predicted"] {
		t.Error("loads_logged + loads_predicted != loads_total")
	}

	// Span ladder: every stage present, and the cumulative offline
	// stages dominate their parts (hb = replay+detect includes replay;
	// classification includes both). Absolute stage-vs-stage ratios are
	// hardware noise; the cumulative structure is not.
	native := snap.SpanNanos("native")
	record := snap.SpanNanos("record")
	replay := snap.SpanNanos("replay")
	detect := snap.SpanNanos("detect")
	classify := snap.SpanNanos("classify")
	for name, nanos := range map[string]int64{
		"native": native, "record": record, "replay": replay,
		"detect": detect, "classify": classify,
	} {
		if nanos <= 0 {
			t.Errorf("span %s has no accumulated time", name)
		}
	}
	if hb := replay + detect; hb <= replay {
		t.Errorf("hb-analysis ladder rung (%d) not above replay (%d)", hb, replay)
	}
	if cls := replay + detect + classify; cls <= replay+detect {
		t.Errorf("classification ladder rung (%d) not above hb analysis (%d)", cls, replay+detect)
	}
}

func TestRunMetricsText(t *testing.T) {
	path := writeProg(t)
	out := capture(t, func() error { return cmdRun([]string{"-metrics", path}) })
	for _, want := range []string{"spans:", "record", "counters:", "record.loads_logged", "machine.loads"} {
		if !strings.Contains(out, want) {
			t.Errorf("text metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRecordMetricsEveryMode pins that recording publishes the same
// record.* counters whatever mode it runs in: plain, with key frames, and
// online with key frames. The three modes record the same execution, so
// the instruction and load totals must agree.
func TestRecordMetricsEveryMode(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "programs", "peterson.rasm")
	var want racereplay.MetricsSnapshot
	for i, mode := range [][]string{
		nil,
		{"-keyframes", "64"},
		{"-online", "-keyframes", "64"},
	} {
		args := append([]string{"-metrics=json", "-o", filepath.Join(t.TempDir(), "out.rlog")}, mode...)
		out := capture(t, func() error { return cmdRecord(append(args, prog)) })
		snap := extractJSON(t, out)
		for _, c := range []string{"record.instructions", "record.loads_total"} {
			if snap.Counters[c] == 0 {
				t.Errorf("record %v: counter %s is zero", mode, c)
			}
			if i > 0 && snap.Counters[c] != want.Counters[c] {
				t.Errorf("record %v: %s = %d, plain recording has %d",
					mode, c, snap.Counters[c], want.Counters[c])
			}
		}
		if i == 0 {
			want = snap
		}
	}
}

func TestScenarioMetricsPromToFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "metrics.prom")
	out := capture(t, func() error {
		return cmdScenario([]string{"-name", "exec01", "-metrics=prom", "-metrics-out", dest})
	})
	if strings.Contains(out, "--- metrics ---") {
		t.Error("-metrics-out should divert metrics away from stdout")
	}
	body, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE racereplay_record_executions_total counter",
		"racereplay_span_seconds{span=",
		"racereplay_classify_instances_total_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	path := writeProg(t)
	out := capture(t, func() error { return cmdRun([]string{path}) })
	if strings.Contains(out, "--- metrics ---") {
		t.Errorf("metrics emitted without -metrics:\n%s", out)
	}
}

func TestMetricsFormatFlag(t *testing.T) {
	var f metricsFormatFlag
	for _, tc := range []struct{ in, want string }{
		{"true", "text"}, {"text", "text"}, {"json", "json"}, {"prom", "prom"}, {"false", ""},
	} {
		if err := f.Set(tc.in); err != nil {
			t.Fatalf("Set(%q): %v", tc.in, err)
		}
		if string(f) != tc.want {
			t.Errorf("Set(%q) = %q, want %q", tc.in, f, tc.want)
		}
	}
	if err := f.Set("yaml"); err == nil {
		t.Error("bogus format accepted")
	}
}

// TestCmdProfile drives the live-metrics mode end to end: the HTTP
// endpoints must serve while the suite runs, and the command must print
// the span-derived ladder when done.
func TestCmdProfile(t *testing.T) {
	served := make(chan error, 1)
	profileReady = func(addr string) {
		served <- func() error {
			// The probe races the suite run, so the snapshot may still be
			// empty; the endpoint contract (status, content type, and
			// namespaced families once data exists) is what we check.
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/metrics status = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("/metrics content type = %q", ct)
			}
			body, _ := io.ReadAll(resp.Body)
			if len(body) > 0 && !strings.Contains(string(body), "racereplay_") {
				t.Errorf("unexpected /metrics body:\n%s", body)
			}
			jr, err := http.Get("http://" + addr + "/metrics.json")
			if err != nil {
				return err
			}
			defer jr.Body.Close()
			var snap racereplay.MetricsSnapshot
			return json.NewDecoder(jr.Body).Decode(&snap)
		}()
	}
	defer func() { profileReady = nil }()

	out := capture(t, func() error {
		return cmdProfile([]string{"-addr", "127.0.0.1:0", "-iterations", "1"})
	})
	if err := <-served; err != nil {
		t.Fatalf("metrics endpoints: %v", err)
	}
	for _, want := range []string{"profiling server on http://", "iteration 1/1 done", "overhead ladder"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}
