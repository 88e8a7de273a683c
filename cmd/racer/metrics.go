package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	racereplay "repro"
	"repro/internal/obs"
)

// metricsOpts is the shared observability flag set: -metrics/-metrics-out
// (counters and spans), -trace-out (the flight-recorder timeline as
// Chrome trace_event JSON), and -log-out/-log-level (structured JSONL
// logs). The -metrics flag is bool-style with an optional value: a bare
// -metrics selects the text format, -metrics=json and -metrics=prom pick
// the machine-readable renderings.
type metricsOpts struct {
	format   string // "", "text", "json", "prom"
	out      string // "" = stdout
	traceOut string // "" = timeline off
	logOut   string // "" = logging off; "-" = stderr
	logLevel string // slog level name, default "info"

	logFile *os.File // owned when logOut names a file
}

// addMetricsFlags registers the observability flags on fs.
func addMetricsFlags(fs *flag.FlagSet) *metricsOpts {
	m := &metricsOpts{}
	fs.Var((*metricsFormatFlag)(&m.format), "metrics",
		"emit pipeline metrics: text (default), json, or prom")
	fs.StringVar(&m.out, "metrics-out", "", "write metrics to this file instead of stdout")
	fs.StringVar(&m.traceOut, "trace-out", "",
		"record an event timeline and write it as Chrome trace JSON (load in Perfetto) to this file")
	fs.StringVar(&m.logOut, "log-out", "",
		"write structured JSONL logs to this file (- for stderr)")
	fs.StringVar(&m.logLevel, "log-level", "info",
		"minimum structured log level: debug, info, warn, or error")
	return m
}

// metricsFormatFlag lets -metrics work both bare and with a value.
type metricsFormatFlag string

func (f *metricsFormatFlag) String() string { return string(*f) }

func (f *metricsFormatFlag) IsBoolFlag() bool { return true }

func (f *metricsFormatFlag) Set(v string) error {
	switch v {
	case "true", "text", "":
		*f = "text"
	case "false":
		*f = ""
	case "json", "prom":
		*f = metricsFormatFlag(v)
	default:
		return fmt.Errorf("unknown metrics format %q (want text, json, or prom)", v)
	}
	return nil
}

// enabled reports whether any observability output was requested.
func (m *metricsOpts) enabled() bool {
	return m.format != "" || m.traceOut != "" || m.logOut != ""
}

// registry returns the registry to thread through the pipeline: nil when
// every observability output is off, which keeps every pipeline stage's
// metrics free. With -trace-out the registry carries a flight-recorder
// timeline; with -log-out it carries a leveled JSONL logger.
func (m *metricsOpts) registry() (*racereplay.Metrics, error) {
	if !m.enabled() {
		return nil, nil
	}
	reg := racereplay.NewMetrics()
	if m.traceOut != "" {
		reg.EnableTimeline(0)
	}
	if m.logOut != "" {
		var level slog.Level
		if err := level.UnmarshalText([]byte(m.logLevel)); err != nil {
			return nil, fmt.Errorf("-log-level: %w", err)
		}
		w := os.Stderr
		if m.logOut != "-" {
			f, err := os.Create(m.logOut)
			if err != nil {
				return nil, fmt.Errorf("-log-out: %w", err)
			}
			m.logFile, w = f, f
		}
		reg.SetLogger(obs.NewJSONLogger(w, level))
	}
	return reg, nil
}

// emit flushes every requested observability output: the metrics
// snapshot in the selected format, the timeline as Chrome trace JSON,
// and closes the log file. A nil registry (observability off) emits
// nothing.
func (m *metricsOpts) emit(reg *racereplay.Metrics) error {
	if reg == nil {
		return nil
	}
	if m.logFile != nil {
		defer func() {
			m.logFile.Close()
			m.logFile = nil
		}()
	}
	if m.traceOut != "" {
		if err := writeTraceFile(reg, m.traceOut); err != nil {
			return err
		}
	}
	if m.format == "" {
		return nil
	}
	snap := reg.Snapshot()
	var body string
	switch m.format {
	case "json":
		body = snap.JSON()
	case "prom":
		body = snap.Prometheus()
	default:
		body = snap.Text()
	}
	if m.out != "" {
		return os.WriteFile(m.out, []byte(body), 0o644)
	}
	fmt.Fprint(stdout, "\n--- metrics ---\n"+body)
	return nil
}

// writeTraceFile renders the registry's timeline as Chrome trace JSON.
func writeTraceFile(reg *racereplay.Metrics, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Timeline().WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
