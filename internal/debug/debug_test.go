package debug

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/trace"
)

const counterSrc = `
.entry main
.word counter 0
producer:
  ldi r5, 5
ploop:
  ldi r2, counter
  ld r3, [r2+0]
  addi r3, r3, 10
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, ploop
  ldi r1, 0
  sys exit
main:
  ldi r1, producer
  ldi r2, 0
  sys spawn
  sys join
  ldi r2, counter
  ld r1, [r2+0]
  sys print
  halt
`

func recordCounter(t *testing.T) *trace.Log {
	t.Helper()
	prog, err := asm.Assemble("dbg", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: 3}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestDebuggerSeekAndMemory(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pos() != d.Len() {
		t.Fatalf("fresh debugger should sit at the end (%d/%d)", d.Pos(), d.Len())
	}
	counterAddr := isa.DataBase

	// At the end the counter holds 50.
	if v, _ := d.Mem(counterAddr); v != 50 {
		t.Errorf("final counter = %d, want 50", v)
	}
	// Walk backwards: the value must be non-increasing and reach 0.
	prev := uint64(50)
	for pos := d.Len(); pos >= 1; pos-- {
		if err := d.Seek(pos); err != nil {
			t.Fatal(err)
		}
		v, _ := d.Mem(counterAddr)
		if v > prev {
			t.Fatalf("counter increased going backwards: %d -> %d at pos %d", prev, v, pos)
		}
		prev = v
	}
	if prev != 0 {
		t.Errorf("counter at position 1 = %d, want 0", prev)
	}
}

func TestDebuggerStepAndClamp(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Seek(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Step(2); err != nil || d.Pos() != 3 {
		t.Fatalf("step: pos = %d, err %v", d.Pos(), err)
	}
	if err := d.Step(-1); err != nil || d.Pos() != 2 {
		t.Fatalf("back: pos = %d, err %v", d.Pos(), err)
	}
	if err := d.Step(-99); err != nil || d.Pos() != 1 {
		t.Fatalf("clamp low: pos = %d", d.Pos())
	}
	if err := d.Step(999); err != nil || d.Pos() != d.Len() {
		t.Fatalf("clamp high: pos = %d", d.Pos())
	}
}

func TestDebuggerWritesTo(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	ws := d.WritesTo(isa.DataBase)
	if len(ws) != 5 {
		t.Fatalf("writes = %d, want 5", len(ws))
	}
	for i, w := range ws {
		if w.Val != uint64(10*(i+1)) {
			t.Errorf("write %d value = %d, want %d", i, w.Val, 10*(i+1))
		}
		if w.TID != 1 {
			t.Errorf("write %d by thread %d, want 1", i, w.TID)
		}
	}
	first, ok := d.FirstWriteTo(isa.DataBase)
	if !ok || first.Val != 10 {
		t.Errorf("first write = %+v, %v", first, ok)
	}
	if _, ok := d.FirstWriteTo(0xdddd); ok {
		t.Error("phantom write")
	}
	// Seeking to just before the first write shows 0; just after shows 10.
	if err := d.Seek(first.Pos - 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Mem(isa.DataBase); v != 0 {
		t.Errorf("before first write: %d, want 0", v)
	}
	if err := d.Seek(first.Pos); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Mem(isa.DataBase); v != 10 {
		t.Errorf("after first write: %d, want 10", v)
	}
}

func TestDebuggerThreadAndOutput(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Thread(0); !ok {
		t.Error("main thread missing")
	}
	if _, ok := d.Thread(9); ok {
		t.Error("phantom thread")
	}
	if out := d.Output(0); len(out) != 1 || out[0] != 50 {
		t.Errorf("main output = %v, want [50]", out)
	}
	if v, ok := d.ValueBefore(isa.DataBase, d.Len()); !ok || v != 50 {
		t.Errorf("ValueBefore end = %d,%v", v, ok)
	}
	if s := d.Summary(); !strings.Contains(s, "position") || !strings.Contains(s, "thread 0") {
		t.Errorf("summary incomplete: %s", s)
	}
}

func TestREPLSession(t *testing.T) {
	log := recordCounter(t)
	script := `
pos
step 3
mem 0x1000
back 2
mem 0x1000
regions
writes 0x1000
first 0x1000
regs 0
output 0
seek 1
mem 0x1000
bogus
help
quit
`
	var out strings.Builder
	if err := REPL(log, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"time-travel debugger",
		"position",
		"mem[0x1000]",
		"first write at pos",
		"unknown command \"bogus\"",
		"commands:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("REPL output missing %q:\n%s", want, text)
		}
	}
}

func TestREPLQuitAndEOF(t *testing.T) {
	log := recordCounter(t)
	var out strings.Builder
	if err := REPL(log, strings.NewReader("quit\n"), &out); err != nil {
		t.Fatal(err)
	}
	// EOF without quit is also a clean exit.
	if err := REPL(log, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

func TestThreadStateAtViaDebugger(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	tl := log.Thread(1)
	st, err := d.ThreadStateAt(1, tl.Retired)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := d.Thread(1)
	if st.Cpu.Regs != full.Regs {
		t.Error("instruction-granular final state differs from region-granular")
	}
	if _, err := d.ThreadStateAt(42, 0); err == nil {
		t.Error("phantom thread accepted")
	}
}

func TestREPLTstate(t *testing.T) {
	log := recordCounter(t)
	var out strings.Builder
	if err := REPL(log, strings.NewReader("tstate 1 3\ntstate 99 0\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "thread 1 after 3 instructions") {
		t.Errorf("tstate output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "error:") {
		t.Error("bad tid should error")
	}
}
