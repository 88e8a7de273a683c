package chaos_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The test lives in package chaos_test so it can stand up a real
// analysis service (internal/serve) as the target without the chaos
// package itself depending on it.

func recordContainer(t *testing.T) []byte {
	t.Helper()
	s, err := workloads.FindScenario("exec01")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, s.Config(), record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Compress(trace.Marshal(log))
}

// TestRunHTTPContract fires the full hostile sweep — every corruption
// kind, truncated uploads, slow-loris dribbles — at a live analysis
// service and asserts the service contract: no 5xx, no handler panics,
// daemon still serving afterwards.
func TestRunHTTPContract(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	container := recordContainer(t)
	rep := chaos.RunHTTP(ts.URL, container, 16, 1, nil)
	if v := rep.Violations(); v != 0 {
		t.Fatalf("service contract violated %d times:\n%s", v, rep.Summary())
	}
	if !rep.Alive {
		t.Fatal("service dead after sweep")
	}
	if rep.HTTPPanics != 0 {
		t.Fatalf("handler panics = %d", rep.HTTPPanics)
	}
	for _, tr := range rep.Trials {
		if tr.Status >= 500 {
			t.Errorf("trial %d (%s): status %d", tr.Index, tr.Attack, tr.Status)
		}
	}
	// Sixteen trials cycle the whole corruption taxonomy (8 kinds) at
	// least twice; every response must have been a quarantine/rejection
	// or a clean accept of a still-valid mutant.
	if rep.Rejected+rep.Accepted+rep.Transport != len(rep.Trials) {
		t.Fatalf("trials unaccounted: %d rejected + %d accepted + %d transport != %d",
			rep.Rejected, rep.Accepted, rep.Transport, len(rep.Trials))
	}
	if rep.Rejected == 0 {
		t.Fatal("no hostile request was rejected — the sweep tested nothing")
	}

	// Drain so accepted still-valid mutants finish before cleanup.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after sweep: %v", err)
	}
}

// TestRunHTTPDetectsDeadService: a wrong endpoint must count as a
// violation, not silently pass.
func TestRunHTTPDetectsDeadService(t *testing.T) {
	rep := chaos.RunHTTP("http://127.0.0.1:1", []byte("x"), 1, 1, nil)
	if rep.Alive {
		t.Fatal("unreachable service reported alive")
	}
	if rep.Violations() == 0 {
		t.Fatal("dead service counted zero violations")
	}
}
