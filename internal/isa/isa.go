// Package isa defines the instruction set of the RVM, the small RISC-like
// virtual machine this repository uses as its execution substrate.
//
// The paper's algorithms (iDNA-style recording, sequencing-region replay,
// happens-before race detection, and replay-both-orders classification) all
// operate at instruction granularity. The RVM provides exactly the features
// those algorithms need: a word-granular flat address space, general
// registers, lock-prefixed atomic instructions that act as synchronization
// points, and system calls. Everything above this package is the paper's
// machinery, unmodified.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers (r0..r15).
// r0 is hardwired to zero (writes are discarded), r15 is the stack
// pointer, syscall arguments are passed in r1..r3, and a syscall's result
// replaces r1.
const NumRegs = 16

// Zero is the hardwired zero register.
const Zero = 0

// SP is the conventional stack-pointer register.
const SP = 15

// Op identifies an RVM instruction opcode.
type Op uint8

// Opcode space. Arithmetic ops use rd = rs1 <op> rs2; immediate forms use
// rd = rs1 <op> imm. Branch targets and jump targets are absolute
// instruction indices held in Imm.
const (
	OpNop Op = iota
	OpHalt

	// Data movement.
	OpLdi // rd = imm
	OpMov // rd = rs1

	// Three-register ALU.
	OpAdd // rd = rs1 + rs2
	OpSub // rd = rs1 - rs2
	OpMul // rd = rs1 * rs2
	OpDiv // rd = rs1 / rs2 (faults on rs2 == 0)
	OpMod // rd = rs1 % rs2 (faults on rs2 == 0)
	OpAnd // rd = rs1 & rs2
	OpOr  // rd = rs1 | rs2
	OpXor // rd = rs1 ^ rs2
	OpShl // rd = rs1 << (rs2 & 63)
	OpShr // rd = rs1 >> (rs2 & 63)

	// Immediate ALU.
	OpAddi // rd = rs1 + imm
	OpMuli // rd = rs1 * imm
	OpAndi // rd = rs1 & imm
	OpOri  // rd = rs1 | imm
	OpXori // rd = rs1 ^ imm
	OpShli // rd = rs1 << (imm & 63)
	OpShri // rd = rs1 >> (imm & 63)

	// Unary ALU.
	OpNot // rd = ^rs1
	OpNeg // rd = -rs1

	// Memory. Addresses are word-granular: each address names one 64-bit
	// word. The effective address is rs1 + imm.
	OpLd // rd = mem[rs1+imm]
	OpSt // mem[rs1+imm] = rs2

	// Control flow. Branch/jump targets are absolute instruction indices.
	OpBeq  // if rs1 == rs2: pc = imm
	OpBne  // if rs1 != rs2: pc = imm
	OpBlt  // if int64(rs1) <  int64(rs2): pc = imm
	OpBge  // if int64(rs1) >= int64(rs2): pc = imm
	OpBltu // if rs1 <  rs2 (unsigned): pc = imm
	OpBgeu // if rs1 >= rs2 (unsigned): pc = imm
	OpJmp  // pc = imm
	OpJmpr // pc = rs1 (indirect; faults on out-of-range target)
	OpCall // mem[--sp] = pc+1; pc = imm
	OpRet  // pc = mem[sp++]

	// Lock-prefixed atomics. These are the RVM's synchronization
	// instructions: the recorder logs a sequencer at each of them,
	// exactly as iDNA does for x86 lock-prefixed instructions.
	OpCas   // old = mem[rs1+imm]; if old == rd { mem[rs1+imm] = rs2 }; rd = old
	OpXadd  // old = mem[rs1+imm]; mem[rs1+imm] = old + rs2; rd = old
	OpXchg  // old = mem[rs1+imm]; mem[rs1+imm] = rs2; rd = old
	OpFence // full barrier (sequencer only; no data effect)

	// Blocking mutex on the word at rs1+imm. Both emit sequencers.
	OpLock
	OpUnlock

	// System call number in Imm; arguments in r1..r3, result replaces r1.
	// Every syscall emits a sequencer.
	OpSys

	// Non-atomic read-modify-write memory ops (x86 "or [mem], reg"
	// without a LOCK prefix). They are data accesses, not synchronization:
	// no sequencer is logged, and the race detector sees both the load
	// and the store.
	OpOrm  // mem[rs1+imm] |= rs2
	OpAndm // mem[rs1+imm] &= rs2
	OpXorm // mem[rs1+imm] ^= rs2
	OpAddm // mem[rs1+imm] += rs2

	opCount // sentinel; must be last
)

// OpCount is the number of defined opcodes (for encode/decode validation).
const OpCount = int(opCount)

var opNames = [...]string{
	OpNop: "nop", OpHalt: "halt",
	OpLdi: "ldi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddi: "addi", OpMuli: "muli", OpAndi: "andi", OpOri: "ori",
	OpXori: "xori", OpShli: "shli", OpShri: "shri",
	OpNot: "not", OpNeg: "neg",
	OpLd: "ld", OpSt: "st",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJmp: "jmp", OpJmpr: "jmpr", OpCall: "call", OpRet: "ret",
	OpCas: "cas", OpXadd: "xadd", OpXchg: "xchg", OpFence: "fence",
	OpLock: "lock", OpUnlock: "unlock",
	OpSys: "sys",
	OpOrm: "orm", OpAndm: "andm", OpXorm: "xorm", OpAddm: "addm",
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opCount }

// IsSync reports whether the instruction is a synchronization point:
// the recorder logs a sequencer immediately before executing it.
func (op Op) IsSync() bool {
	switch op {
	case OpCas, OpXadd, OpXchg, OpFence, OpLock, OpUnlock, OpSys:
		return true
	}
	return false
}

// IsCondBranch reports whether op is a conditional branch: control either
// falls through to pc+1 or transfers to the Imm target.
func (op Op) IsCondBranch() bool {
	switch op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	}
	return false
}

// ReadsMem reports whether executing op reads a data-memory word.
func (op Op) ReadsMem() bool {
	switch op {
	case OpLd, OpCas, OpXadd, OpXchg, OpRet, OpOrm, OpAndm, OpXorm, OpAddm:
		return true
	}
	return false
}

// WritesMem reports whether executing op may write a data-memory word.
// OpCas writes only when the comparison succeeds; this predicate is the
// static may-write approximation.
func (op Op) WritesMem() bool {
	switch op {
	case OpSt, OpCas, OpXadd, OpXchg, OpCall, OpOrm, OpAndm, OpXorm, OpAddm:
		return true
	}
	return false
}

// Syscall numbers, passed in the Imm field of OpSys.
const (
	SysExit   = 0  // terminate the calling thread; r1 = exit code
	SysPrint  = 1  // append r1 (as a decimal integer) to the thread's output
	SysAlloc  = 2  // r1 = address of a fresh block of r1 words
	SysFree   = 3  // release the block at r1 (faults on bad/double free); r1 = 0
	SysSpawn  = 4  // r1 = tid of a new thread starting at pc r1 with its r1 = caller's r2
	SysJoin   = 5  // block until thread r1 exits; r1 = its exit code
	SysYield  = 6  // hint: reschedule; r1 = 0
	SysGettid = 7  // r1 = calling thread's id
	SysRand   = 8  // r1 = next value from the run's deterministic entropy stream
	SysTime   = 9  // r1 = current virtual time (global retired-instruction count)
	SysNop    = 10 // no effect beyond the sequencer (used to place sync points); r1 = 0

	SyscallCount = 11
)

var sysNames = [SyscallCount]string{
	"exit", "print", "alloc", "free", "spawn", "join",
	"yield", "gettid", "rand", "time", "sysnop",
}

// SyscallName returns the mnemonic name of syscall number n.
func SyscallName(n int64) string {
	if n >= 0 && n < SyscallCount {
		return sysNames[n]
	}
	return fmt.Sprintf("sys(%d)", n)
}

// SyscallNumber resolves a syscall mnemonic to its number, or -1.
func SyscallNumber(name string) int64 {
	for i, s := range sysNames {
		if s == name {
			return int64(i)
		}
	}
	return -1
}

// Instr is a single decoded RVM instruction.
type Instr struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          int64
}

// String renders i in assembler syntax (without symbolic labels).
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt, OpFence, OpRet:
		return i.Op.String()
	case OpLdi:
		return fmt.Sprintf("ldi r%d, %d", i.Rd, i.Imm)
	case OpMov, OpNot, OpNeg:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Rd, i.Rs1)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpAddi, OpMuli, OpAndi, OpOri, OpXori, OpShli, OpShri:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLd:
		return fmt.Sprintf("ld r%d, [r%d+%d]", i.Rd, i.Rs1, i.Imm)
	case OpSt:
		return fmt.Sprintf("st [r%d+%d], r%d", i.Rs1, i.Imm, i.Rs2)
	case OpOrm, OpAndm, OpXorm, OpAddm:
		return fmt.Sprintf("%s [r%d+%d], r%d", i.Op, i.Rs1, i.Imm, i.Rs2)
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case OpJmpr:
		return fmt.Sprintf("jmpr r%d", i.Rs1)
	case OpCas, OpXadd, OpXchg:
		return fmt.Sprintf("%s r%d, [r%d+%d], r%d", i.Op, i.Rd, i.Rs1, i.Imm, i.Rs2)
	case OpLock, OpUnlock:
		return fmt.Sprintf("%s [r%d+%d]", i.Op, i.Rs1, i.Imm)
	case OpSys:
		return fmt.Sprintf("sys %s", SyscallName(i.Imm))
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Rs2, i.Imm)
	}
}
