package debug_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/record"
)

// Example walks a recorded execution backwards to find where a counter
// first became non-zero.
func Example() {
	src := `
.word counter 0
main:
  ldi r2, counter
  ldi r3, 5
  st [r2+0], r3
  fence
  ldi r3, 9
  st [r2+0], r3
  fence
  halt
`
	prog, err := asm.Assemble("ex", src)
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, _, err := record.Run(prog, machine.Config{Seed: 1}, record.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	d, err := debug.New(rlog)
	if err != nil {
		log.Fatal(err)
	}
	w, _ := d.FirstWriteTo(0x1000)
	fmt.Printf("first write at position %d stored %d\n", w.Pos, w.Val)
	if err := d.Seek(w.Pos); err != nil {
		log.Fatal(err)
	}
	v, _ := d.Mem(0x1000)
	fmt.Printf("counter right after it: %d\n", v)
	// Output:
	// first write at position 1 stored 5
	// counter right after it: 5
}

// ExampleREPL drives a scripted debugger session.
func ExampleREPL() {
	src := "main:\n  fence\n  halt\n"
	prog, err := asm.Assemble("ex", src)
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, _, err := record.Run(prog, machine.Config{Seed: 1}, record.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	var out strings.Builder
	if err := debug.REPL(rlog, strings.NewReader("pos\nquit\n"), &out); err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.SplitN(out.String(), "\n", 2)[0])
	// Output:
	// time-travel debugger: 2 regions, 1 threads (type 'help')
}
