package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"testing"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/trace"
)

const racySrc = `
.entry main
.word n 0
worker:
  ldi r2, 10
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  sys sysnop
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

func TestAnalyzeEndToEnd(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(prog, machine.Config{Seed: 4}, record.OnlineConfig{}, classify.Options{Scenario: "core"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine == nil || res.Log == nil || res.Exec == nil || res.Races == nil || res.Classification == nil {
		t.Fatal("incomplete result")
	}
	if res.Log.Instructions() == 0 {
		t.Error("empty log")
	}
	if res.LogStats().RawBytes == 0 {
		t.Error("empty stats")
	}
	// Classification covers exactly the detected races.
	if len(res.Classification.Races) != len(res.Races.Races) {
		t.Errorf("classified %d of %d races", len(res.Classification.Races), len(res.Races.Races))
	}
	// Seed defaulting: opts.Seed inherits cfg.Seed.
	for _, r := range res.Classification.Races {
		for _, s := range r.Samples {
			if s.Seed != 4 {
				t.Errorf("sample seed = %d, want 4", s.Seed)
			}
		}
	}
}

func TestAnalyzeLogMatchesAnalyze(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: 9}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the log through serialization before the offline half.
	log2, err := trace.Unmarshal(trace.Marshal(log))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeLog(log2, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(prog, machine.Config{Seed: 9}, record.OnlineConfig{}, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Races.Races) != len(b.Races.Races) {
		t.Errorf("race counts differ: %d vs %d", len(a.Races.Races), len(b.Races.Races))
	}
	if a.Classification.TotalInstances() != b.Classification.TotalInstances() {
		t.Errorf("instance counts differ: %d vs %d",
			a.Classification.TotalInstances(), b.Classification.TotalInstances())
	}
}

func TestAnalyzeRejectsBadProgram(t *testing.T) {
	prog, err := asm.Assemble("empty", "main:\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	prog.Entry = 99 // corrupt after assembly
	if _, err := Analyze(prog, machine.Config{Seed: 1}, record.OnlineConfig{}, classify.Options{}); err == nil {
		t.Error("corrupt program accepted")
	}
}

// TestAnalyzeLogsMatchesSerial: the batch API returns, for every log,
// exactly what AnalyzeLog returns, in input order, at any worker count.
func TestAnalyzeLogsMatchesSerial(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	var logs []*trace.Log
	for seed := int64(1); seed <= 6; seed++ {
		log, _, _, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}
	optsFor := func(i int) classify.Options {
		return classify.Options{Scenario: "core", Seed: int64(i + 1)}
	}
	want := make([]*Result, len(logs))
	for i, log := range logs {
		if want[i], err = AnalyzeLog(log, optsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, jobs := range []int{1, 4, 16} {
		got, quarantined := AnalyzeLogs(logs, optsFor, jobs, nil)
		if len(quarantined) != 0 {
			t.Fatalf("jobs=%d: healthy batch quarantined %v", jobs, quarantined)
		}
		if len(got) != len(want) {
			t.Fatalf("jobs=%d: %d results, want %d", jobs, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Classification, want[i].Classification) {
				t.Errorf("jobs=%d: log %d classification differs from serial", jobs, i)
			}
			if len(got[i].Races.Races) != len(want[i].Races.Races) {
				t.Errorf("jobs=%d: log %d race count differs", jobs, i)
			}
		}
	}
}

// TestAnalyzeLogsQuarantinesBadItems: corrupt logs mid-batch do not
// abort it — the healthy log is still analyzed and each bad log lands
// in the quarantine list, labeled and in index order, at any worker
// count.
func TestAnalyzeLogsQuarantinesBadItems(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	good, _, _, err := record.Run(prog, machine.Config{Seed: 2}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a copy of the log: stripping the logged load values makes
	// every shared-memory read unresolvable, which replay must reject.
	bad := *good
	bad.Threads = make([]*trace.ThreadLog, len(good.Threads))
	for i, tl := range good.Threads {
		cp := *tl
		cp.Loads = nil
		bad.Threads[i] = &cp
	}
	logs := []*trace.Log{good, &bad, &bad}
	for _, jobs := range []int{1, 4} {
		reg := obs.NewRegistry()
		results, quarantined := AnalyzeLogs(logs, func(i int) classify.Options {
			return classify.Options{Scenario: fmt.Sprintf("log%d", i)}
		}, jobs, reg)
		if len(results) != 3 || results[0] == nil {
			t.Fatalf("jobs=%d: healthy log not analyzed (results %v)", jobs, results)
		}
		if results[1] != nil || results[2] != nil {
			t.Errorf("jobs=%d: corrupt logs produced results", jobs)
		}
		if len(quarantined) != 2 {
			t.Fatalf("jobs=%d: quarantined %d items, want 2", jobs, len(quarantined))
		}
		if quarantined[0].Index != 1 || quarantined[0].Label != "log1" || quarantined[0].Err == nil {
			t.Errorf("jobs=%d: first quarantined item = %+v", jobs, quarantined[0])
		}
		if !strings.Contains(quarantined[0].String(), "log1") {
			t.Errorf("jobs=%d: quarantine line %q not labeled", jobs, quarantined[0])
		}
		if got := reg.Counter("robust.quarantined").Value(); got != 2 {
			t.Errorf("jobs=%d: robust.quarantined = %d, want 2", jobs, got)
		}
	}
}

// TestAnalyzeLogsIsolatesPanics: a log whose analysis panics outright
// (nil program) quarantines as a *sched.PanicError instead of crashing
// the batch.
func TestAnalyzeLogsIsolatesPanics(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	good, _, _, err := record.Run(prog, machine.Config{Seed: 2}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Prog = nil // replay dereferences the program: guaranteed panic or error
	for _, jobs := range []int{1, 4} {
		results, quarantined := AnalyzeLogs([]*trace.Log{&bad, good}, func(i int) classify.Options {
			return classify.Options{Scenario: fmt.Sprintf("log%d", i)}
		}, jobs, nil)
		if results[1] == nil {
			t.Fatalf("jobs=%d: healthy log lost to the panicking one", jobs)
		}
		if len(quarantined) != 1 || quarantined[0].Index != 0 {
			t.Fatalf("jobs=%d: quarantine = %v, want the panicking log only", jobs, quarantined)
		}
	}
}

// TestDecodeLogBothFormats: DecodeLog and DecodeLogFrom sniff either
// container format and return the same log the v1 path does.
func TestDecodeLogBothFormats(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: 3}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Marshal(log)
	v1 := trace.Compress(want)
	v2 := trace.MarshalV2(log)
	for name, data := range map[string][]byte{"v1": v1, "v2": v2, "raw": want} {
		got, err := DecodeLog(data)
		if err != nil {
			t.Fatalf("%s: DecodeLog: %v", name, err)
		}
		if !reflect.DeepEqual(trace.Marshal(got), want) {
			t.Errorf("%s: DecodeLog round-trip diverged", name)
		}
		got2, faults, err := DecodeLogFrom(bytes.NewReader(data), int64(len(data)),
			DecodeOptions{Jobs: 2, Salvage: true, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: DecodeLogFrom: %v", name, err)
		}
		if len(faults) != 0 {
			t.Errorf("%s: DecodeLogFrom faults = %v on an intact log", name, faults)
		}
		if !reflect.DeepEqual(trace.Marshal(got2), want) {
			t.Errorf("%s: DecodeLogFrom round-trip diverged", name)
		}
	}
	if _, err := DecodeLog([]byte("not a log at all")); err == nil {
		t.Error("garbage accepted")
	}
}
