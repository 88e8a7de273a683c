package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rr "repro"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// corpusSize is how many upload containers a set-up records ahead of
// the run. A run that outpaces it has each client record its next
// container itself, before the upload's clock starts.
const corpusSize = 18 * 64

// upload is one v2 suite container with a distinct scheduler seed.
type upload struct {
	label     string
	container []byte
	instr     uint64
}

// serveState is the serve workload: nproc CI clients in a closed loop,
// each uploading one container and polling its job until the terminal
// verdict before sending the next. Every measured stretch gets a fresh
// server (empty data directory, cold memo store).
type serveState struct {
	c       *config
	scen    []workloads.Scenario
	progs   []*rr.Program
	corpus  []upload
	next    atomic.Int64 // next upload index, across the whole run
	fsType  string
	client  *http.Client
	servers []*server
	truth   *truth
}

// server is one in-process racer serve instance and the uploads it
// finished.
type server struct {
	reg     *rr.Metrics
	dir     string
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	uploads []sent
}

// sent is one upload's outcome.
type sent struct {
	upload
	id      string
	status  int    // HTTP status of the POST
	verdict string // terminal job status
	latency time.Duration
}

func setupServe(c *config) (state, error) {
	s := &serveState{c: c, truth: newTruth()}
	s.scen = workloads.Scenarios()
	if c.min {
		s.scen = s.scen[:2]
	}
	for _, sc := range s.scen {
		prog, err := rr.Assemble(workloads.ProgName, sc.Source())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		s.progs = append(s.progs, prog)
	}
	n := corpusSize
	if c.min {
		n = 8
	}
	for i := 0; i < n; i++ {
		u, err := s.record(i)
		if err != nil {
			return nil, err
		}
		s.corpus = append(s.corpus, u)
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * c.nproc}}
	srv, err := s.start(nil)
	if err != nil {
		s.close()
		return nil, err
	}
	s.fsType = fsType(srv.dir)
	return s, nil
}

// input returns the program and configuration of upload i.
func (s *serveState) input(i int) input {
	k := i % len(s.scen)
	sc := s.scen[k]
	sc.Seed = derive(s.c.seed, streamServe, i)
	return input{label: fmt.Sprintf("%s-%05d.rlog", sc.Name, i), base: sc.Name, prog: s.progs[k], cfg: sc.Config()}
}

func (s *serveState) record(i int) (upload, error) {
	in := s.input(i)
	log, err := rr.Record(in.prog, in.cfg)
	if err != nil {
		return upload{}, fmt.Errorf("%s: %w", in.label, err)
	}
	var buf bytes.Buffer
	if err := rr.WriteLogFormat(&buf, log, rr.FormatV2); err != nil {
		return upload{}, fmt.Errorf("%s: %w", in.label, err)
	}
	return upload{label: in.label, container: buf.Bytes(), instr: log.Instructions()}, nil
}

// start launches a server over a fresh data directory in the work
// directory, listening on a loopback port.
func (s *serveState) start(reg *rr.Metrics) (*server, error) {
	root := filepath.Join(s.c.work, "serve")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir, Jobs: s.c.nproc, Registry: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	sv := &server{reg: reg, dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	s.servers = append(s.servers, sv)
	return sv, nil
}

func (s *serveState) close() {
	for _, sv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		sv.hs.Shutdown(ctx)
		<-sv.served
		sv.srv.Shutdown(ctx)
		cancel()
		os.RemoveAll(sv.dir)
	}
	s.servers = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *serveState) warmup() error {
	// The first stretch measures a cold server, so the warm-up only
	// checks that the service answers.
	resp, err := s.client.Get(s.servers[0].url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

func (s *serveState) calibrate(until time.Time, tr *tracer) calibration {
	inputs := make([]input, len(s.scen))
	for i := range inputs {
		inputs[i] = s.input(i)
	}
	return calibrate(inputs, false, until, tr)
}

// measure runs the closed loop against a cold server: the set-up's
// server for the first stretch, a new one (carrying reg) for each later
// stretch.
func (s *serveState) measure(until time.Time, tr *tracer, reg *rr.Metrics) (*phase, error) {
	sv := s.servers[len(s.servers)-1]
	if len(sv.uploads) > 0 || sv.reg != reg {
		var err error
		if sv, err = s.start(reg); err != nil {
			return nil, err
		}
	}
	clients := s.c.nproc
	done := make([][]sent, clients)
	ph := &phase{}
	ph.uploads = true
	ph.begin()
	var wg sync.WaitGroup
	wg.Add(clients)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			defer wg.Done()
			done[cl] = s.runClient(sv, cl, until, tr)
		}(cl)
	}
	wg.Wait()
	ph.end()
	for _, d := range done {
		sv.uploads = append(sv.uploads, d...)
	}
	for _, u := range sv.uploads {
		ph.attempted++
		ok := u.status == http.StatusAccepted && u.verdict == string(serve.StatusDone)
		if !ok {
			ph.failed++
			ph.problems = appendUnique(ph.problems, fmt.Sprintf("upload %s: HTTP %d, job %q", u.label, u.status, u.verdict))
			ph.latencies = append(ph.latencies, math.Inf(1))
			continue
		}
		ph.executions++
		ph.latencies = append(ph.latencies, float64(u.latency)/1e6)
		ph.logBits += float64(8 * len(u.container))
		ph.logInstr += float64(u.instr)
	}
	return ph, nil
}

// runClient is one CI client: upload, poll until the job is terminal,
// repeat until the deadline.
func (s *serveState) runClient(sv *server, cl int, until time.Time, tr *tracer) []sent {
	var out []sent
	tenant := fmt.Sprintf("ci-%d", cl)
	for time.Now().Before(until) {
		i := int(s.next.Add(1) - 1)
		var u upload
		if i < len(s.corpus) {
			u = s.corpus[i]
		} else {
			var err error
			if u, err = s.record(i); err != nil {
				out = append(out, sent{upload: upload{label: err.Error()}})
				continue
			}
		}
		r := sent{upload: u}
		root := tr.start("upload", -1, i)
		t0 := time.Now()
		sp := tr.start("ingest", root, i)
		r.status, r.id = s.post(sv, tenant, u)
		tr.end(sp)
		if r.status == http.StatusAccepted {
			sp = tr.start("wait", root, i)
			r.verdict = s.poll(sv, r.id)
			tr.end(sp)
		}
		r.latency = time.Since(t0)
		tr.end(root)
		out = append(out, r)
	}
	return out
}

// post uploads one container and returns the HTTP status and job id
// (status 0 on a transport error).
func (s *serveState) post(sv *server, tenant string, u upload) (int, string) {
	url := fmt.Sprintf("%s/v1/upload?tenant=%s&label=%s", sv.url, tenant, u.label)
	resp, err := s.client.Post(url, "application/octet-stream", bytes.NewReader(u.container))
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, ""
	}
	return resp.StatusCode, body.ID
}

// pollInterval bounds how late a client sees its verdict; it is well
// below the per-upload latency, so it adds little to verdict_p50_ms.
const pollInterval = 200 * time.Microsecond

// poll waits for the job's terminal status.
func (s *serveState) poll(sv *server, id string) string {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(sv.url + "/v1/jobs/" + id)
		if err != nil {
			return "transport error: " + err.Error()
		}
		var v struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return "bad job view: " + err.Error()
		}
		if v.Status == string(serve.StatusDone) || v.Status == string(serve.StatusQuarantined) {
			return v.Status
		}
		time.Sleep(pollInterval)
	}
	return "no verdict within a minute"
}

// final checks each server's merged report against AnalyzeLogs over the
// same containers, byte for byte, and every merged verdict against the
// templates' ground truth.
func (s *serveState) final(ph *phase) (string, error) {
	total := 0
	for _, sv := range s.servers {
		if len(sv.uploads) == 0 {
			continue
		}
		total += len(sv.uploads)
		got, pending, err := s.fetchReport(sv)
		if err != nil {
			return "", err
		}
		if pending != "0" {
			ph.problems = append(ph.problems, "merged report still has pending jobs: "+pending)
		}
		want, merged, err := s.expectedReport(sv.uploads)
		if err != nil {
			return "", err
		}
		if got != want {
			ph.problems = append(ph.problems, "GET /v1/report differs from AnalyzeLogs over the same containers")
		}
		w, detail := s.truth.wrong(merged, false)
		ph.wrong += w
		ph.problems = appendUnique(ph.problems, detail...)
	}
	return fmt.Sprintf("%d uploads of %d-scenario suite containers, %d clients, %d pre-recorded, data dir on %s",
		total, len(s.scen), s.c.nproc, len(s.corpus), s.fsType), nil
}

func (s *serveState) fetchReport(sv *server) (text, pending string, err error) {
	resp, err := s.client.Get(sv.url + "/v1/report")
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET /v1/report: HTTP %d", resp.StatusCode)
	}
	return string(body), resp.Header.Get("X-Racer-Pending"), nil
}

// expectedReport renders what racer analyze-dir prints for the uploaded
// containers: decoded in label order (the server's sort key), analyzed
// by AnalyzeLogs in chunks that bound the run's memory, merged.
func (s *serveState) expectedReport(uploads []sent) (string, *rr.Classification, error) {
	ok := make([]sent, 0, len(uploads))
	for _, u := range uploads {
		if u.status == http.StatusAccepted {
			ok = append(ok, u)
		}
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].label < ok[b].label })
	const chunk = 256
	var parts []*rr.Classification
	for lo := 0; lo < len(ok); lo += chunk {
		hi := min(lo+chunk, len(ok))
		logs := make([]*rr.Log, 0, hi-lo)
		for _, u := range ok[lo:hi] {
			log, _, err := rr.DecodeLogOpts(u.container, rr.DecodeOptions{Salvage: true})
			if err != nil {
				return "", nil, fmt.Errorf("%s: %w", u.label, err)
			}
			logs = append(logs, log)
		}
		results, quarantined := rr.AnalyzeLogs(logs, func(i int) rr.Options {
			return rr.Options{Scenario: ok[lo+i].label, Seed: logs[i].Seed}
		}, s.c.nproc)
		if len(quarantined) > 0 {
			return "", nil, errors.New("reference analysis quarantined " + quarantined[0].String())
		}
		for _, res := range results {
			parts = append(parts, res.Classification)
		}
	}
	merged := rr.MergeClassifications(parts...)
	var b strings.Builder
	fmt.Fprintf(&b, "analyzed %d recorded executions\n", len(parts))
	b.WriteString(report.Summary(merged, report.SuiteTruth))
	b.WriteString("\n")
	b.WriteString(report.BuildTable1(merged, report.SuiteTruth).Render())
	return b.String(), merged, nil
}
