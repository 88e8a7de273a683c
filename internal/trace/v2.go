package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The v2 container re-lays the log for decode throughput: instead of one
// flate stream over the whole marshalled log (v1), a fixed self-describing
// header is followed by a segment index and then independently decodable
// segments — one meta segment (program + run metadata) and one segment per
// thread. Segments are stored uncompressed so decode is a zero-copy walk
// over the input buffer, and every segment carries a CRC-32C so
// corruption is localized to the segment it hit. The index is
// first, so a reader can plan — fan segments across workers, or stream one
// thread — after reading only header + index.
//
// Container layout (all fixed-width fields little-endian):
//
//	[0:5]    magic "RRSG2"
//	[5]      version (1)
//	[6]      flags (reserved, 0)
//	[7]      reserved (0)
//	[8:12]   segment count
//	[12:16]  CRC-32C of the index bytes
//	[16:..]  index: 40 bytes per segment
//	[..:EOF] segment payloads, packed in index order
//
// Index entry layout:
//
//	[0]      kind (0 meta, 1 thread)
//	[1:4]    reserved (0)
//	[4:8]    thread id (0 for the meta segment)
//	[8:16]   payload offset, relative to the end of the index
//	[16:24]  encoded payload length
//	[24:32]  raw payload length; always equals the encoded length
//	[32:36]  CRC-32C of the encoded payload
//	[36:40]  reserved (0)
//
// Segment payloads use the same varint/delta discipline as v1, with two
// encodings v1 lacks: register files are stored sparse (only nonzero
// registers), and load addresses are signed deltas from the previous load
// instead of absolute values. Decoding reads varints directly off the
// input slice — no bytes.Reader indirection — which is where the serial
// decode win over v1 comes from; the index is where the parallel win
// comes from.
const (
	fileMagicV2     = "RRSG2"
	v2Version       = 1
	v2HeaderLen     = 16
	v2IndexEntryLen = 40

	segKindMeta   = 0
	segKindThread = 1
)

// crcTable is the CRC-32C (Castagnoli) table segment checksums use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errVarintOverflow = errors.New("varint overflows 64 bits")
	// errChecksum means a segment's payload does not match the CRC its
	// index entry recorded — the bytes were damaged after encoding.
	errChecksum = errors.New("segment checksum mismatch")
)

// Minimum encoded sizes of v2 stream entries, for the same count-cap
// discipline the v1 decoder applies: no count translates into an
// allocation the remaining bytes cannot justify.
const (
	minLoadV2 = 3 // idx delta + addr delta + value
	minSeqV2  = 3 // idx delta + ts delta + kind byte
	minKFV2   = 4 // idx delta + pc + register count + view count
)

// V2Options tunes DecodeV2 (and the format-sniffing entry points that
// forward to it; the v1 path ignores everything but Metrics).
type V2Options struct {
	// Jobs is the worker count thread-segment decode fans across
	// (<= 1 decodes serially). Results are slot-ordered, so the decoded
	// log is identical at every worker count.
	Jobs int
	// QuarantineThreads salvages a log whose corruption is confined to
	// thread segments: corrupt segments are dropped and reported as
	// ThreadFaults while the healthy remainder decodes, provided the
	// header, index, and meta segment are intact and the surviving log
	// still validates. Off means strict: any segment fault fails the log.
	QuarantineThreads bool
	// Metrics receives the decode.v2.* counters (nil is off, as
	// everywhere in obs).
	Metrics *obs.Registry
}

// ThreadFault reports one thread segment dropped by quarantine-mode
// decode: which segment, which thread the index attributed it to, and the
// typed error that condemned it.
type ThreadFault struct {
	Segment int
	TID     int
	Err     error
}

func (f ThreadFault) String() string {
	return fmt.Sprintf("segment %d (thread %d): %v", f.Segment, f.TID, f.Err)
}

// segEntry is one parsed index entry.
type segEntry struct {
	kind   byte
	tid    uint32
	off    uint64
	encLen uint64
	rawLen uint64
	crc    uint32
}

// MarshalV2 serializes log into the v2 container.
func MarshalV2(log *Log) []byte {
	payloads := make([][]byte, 0, 1+len(log.Threads))
	entries := make([]segEntry, 0, 1+len(log.Threads))
	payloads = append(payloads, encodeMetaV2(log))
	entries = append(entries, segEntry{kind: segKindMeta})
	for _, t := range log.Threads {
		payloads = append(payloads, encodeThreadV2(t))
		entries = append(entries, segEntry{kind: segKindThread, tid: uint32(t.TID)})
	}

	off := uint64(0)
	for i, p := range payloads {
		entries[i].off = off
		entries[i].encLen = uint64(len(p))
		entries[i].rawLen = uint64(len(p))
		entries[i].crc = crc32.Checksum(p, crcTable)
		off += uint64(len(p))
	}

	idxLen := len(entries) * v2IndexEntryLen
	out := make([]byte, v2HeaderLen+idxLen, v2HeaderLen+idxLen+int(off))
	copy(out, fileMagicV2)
	out[5] = v2Version
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(entries)))
	for i, e := range entries {
		b := out[v2HeaderLen+i*v2IndexEntryLen:]
		b[0] = e.kind
		binary.LittleEndian.PutUint32(b[4:8], e.tid)
		binary.LittleEndian.PutUint64(b[8:16], e.off)
		binary.LittleEndian.PutUint64(b[16:24], e.encLen)
		binary.LittleEndian.PutUint64(b[24:32], e.rawLen)
		binary.LittleEndian.PutUint32(b[32:36], e.crc)
	}
	binary.LittleEndian.PutUint32(out[12:16], crc32.Checksum(out[v2HeaderLen:v2HeaderLen+idxLen], crcTable))
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// WriteV2 serializes log to w in the v2 container.
func WriteV2(w io.Writer, log *Log) error {
	_, err := w.Write(MarshalV2(log))
	return err
}

func encodeSparseRegs(e *encoder, regs *[isa.NumRegs]uint64) {
	n := 0
	for _, r := range regs {
		if r != 0 {
			n++
		}
	}
	e.u(uint64(n))
	for i, r := range regs {
		if r != 0 {
			e.u(uint64(i))
			e.u(r)
		}
	}
}

// encodeMetaV2 serializes the program and run metadata — everything in
// the log except the threads.
func encodeMetaV2(log *Log) []byte {
	var e encoder
	p := log.Prog
	e.str(p.Name)
	e.bytes(isa.EncodeCode(p.Code))
	e.u(uint64(p.Entry))
	addrs := make([]uint64, 0, len(p.Data))
	for a := range p.Data {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.u(uint64(len(addrs)))
	prevAddr := uint64(0)
	for _, a := range addrs {
		e.u(a - prevAddr)
		prevAddr = a
		e.u(p.Data[a])
	}
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u(uint64(len(names)))
	for _, n := range names {
		e.str(n)
		e.u(uint64(p.Symbols[n]))
	}

	e.i(log.Seed)
	e.u(log.FinalClock)
	e.u(log.TotalSteps)
	if log.Deadlocked {
		e.u(1)
	} else {
		e.u(0)
	}
	e.u(uint64(len(log.Threads)))
	return append([]byte(nil), e.buf.Bytes()...)
}

// encodeThreadV2 serializes one thread's log as a self-contained segment
// payload.
func encodeThreadV2(t *ThreadLog) []byte {
	var e encoder
	e.u(uint64(t.TID))
	e.u(t.StartTS)
	e.u(t.EndTS - t.StartTS) // wrapping delta: lossless for any pair
	e.u(uint64(t.InitPC))
	encodeSparseRegs(&e, &t.InitRegs)
	e.u(t.Retired)
	e.u(uint64(t.EndReason))
	e.u(t.ExitCode)
	if t.Fault != nil {
		e.u(1)
		e.u(uint64(t.Fault.Kind))
		e.u(uint64(t.Fault.PC))
		e.u(t.Fault.Addr)
	} else {
		e.u(0)
	}

	e.u(uint64(len(t.Loads)))
	prevIdx, prevAddr := uint64(0), uint64(0)
	for _, l := range t.Loads {
		e.u(l.Idx - prevIdx)
		prevIdx = l.Idx
		e.i(int64(l.Addr - prevAddr)) // signed wrapping delta
		prevAddr = l.Addr
		e.u(l.Val)
	}

	e.u(uint64(len(t.SysRets)))
	prevIdx = 0
	for _, s := range t.SysRets {
		e.u(s.Idx - prevIdx)
		prevIdx = s.Idx
		e.u(s.Res)
	}

	e.u(uint64(len(t.Seqs)))
	prevIdx, prevTS := uint64(0), uint64(0)
	for _, s := range t.Seqs {
		e.u(s.Idx - prevIdx)
		prevIdx = s.Idx
		e.u(s.TS - prevTS)
		prevTS = s.TS
		kb := byte(s.Kind) & 0x7f
		if s.Aux != -1 {
			kb |= 0x80
		}
		e.buf.WriteByte(kb)
		if s.Aux != -1 {
			e.i(s.Aux)
		}
	}

	e.u(uint64(len(t.KeyFrames)))
	prevIdx = 0
	for _, kf := range t.KeyFrames {
		e.u(kf.Idx - prevIdx)
		prevIdx = kf.Idx
		e.u(uint64(kf.PC))
		regs := kf.Regs
		encodeSparseRegs(&e, &regs)
		e.u(uint64(len(kf.View)))
		prevAddr := uint64(0)
		for _, v := range kf.View {
			e.u(v.Addr - prevAddr)
			prevAddr = v.Addr
			e.u(v.Val)
		}
	}
	return append([]byte(nil), e.buf.Bytes()...)
}

// sdec decodes varints directly off a byte slice — the zero-copy
// counterpart of the v1 decoder's bytes.Reader, with the same typed-error
// and count-cap discipline. base is the slice's offset within the
// container, so reported offsets are container-absolute.
type sdec struct {
	buf     []byte
	off     int
	base    int
	section string
}

func (d *sdec) in(section string) { d.section = section }

func (d *sdec) rem() int { return len(d.buf) - d.off }

func (d *sdec) fail(err error) error {
	return &DecodeError{Offset: d.base + d.off, Section: d.section, Err: err}
}

func (d *sdec) u() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n == 0 {
		return 0, d.fail(ErrTruncated)
	}
	if n < 0 {
		return 0, d.fail(errVarintOverflow)
	}
	d.off += n
	return v, nil
}

func (d *sdec) i() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n == 0 {
		return 0, d.fail(ErrTruncated)
	}
	if n < 0 {
		return 0, d.fail(errVarintOverflow)
	}
	d.off += n
	return v, nil
}

func (d *sdec) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.fail(ErrTruncated)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// count reads a count prefix for entries of at least minSize encoded
// bytes each and rejects counts the remaining input cannot hold.
func (d *sdec) count(minSize int) (uint64, error) {
	n, err := d.u()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.rem())/uint64(minSize) {
		return 0, d.fail(fmt.Errorf("%w: %d entries of >= %d bytes with %d bytes left",
			ErrLengthOverflow, n, minSize, d.rem()))
	}
	return n, nil
}

// take returns the next n bytes as a subslice of the input (no copy).
func (d *sdec) take(n uint64) ([]byte, error) {
	if n > uint64(d.rem()) {
		return nil, d.fail(fmt.Errorf("%w: %d bytes announced, %d left", ErrLengthOverflow, n, d.rem()))
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *sdec) byteSlice() ([]byte, error) {
	n, err := d.u()
	if err != nil {
		return nil, err
	}
	return d.take(n)
}

func (d *sdec) str() (string, error) {
	b, err := d.byteSlice()
	return string(b), err
}

func (d *sdec) sparseRegs(regs *[isa.NumRegs]uint64) error {
	n, err := d.u()
	if err != nil {
		return err
	}
	if n > isa.NumRegs {
		return d.fail(fmt.Errorf("%w: %d register entries, machine has %d", ErrLengthOverflow, n, isa.NumRegs))
	}
	last := -1
	for i := uint64(0); i < n; i++ {
		ri, err := d.u()
		if err != nil {
			return err
		}
		if ri >= isa.NumRegs {
			return d.fail(fmt.Errorf("register index %d out of range", ri))
		}
		if int(ri) <= last {
			return d.fail(fmt.Errorf("register indices not ascending"))
		}
		last = int(ri)
		if regs[ri], err = d.u(); err != nil {
			return err
		}
	}
	return nil
}

// done rejects trailing bytes: a segment's payload must be consumed
// exactly, so damage that shifts the stream cannot hide in slack.
func (d *sdec) done() error {
	if d.off != len(d.buf) {
		return d.fail(fmt.Errorf("%d trailing bytes after segment payload", d.rem()))
	}
	return nil
}

// decodeMetaV2 parses the meta segment into a log skeleton (no threads)
// and the thread count the meta announced.
func decodeMetaV2(payload []byte, base int) (*Log, uint64, error) {
	d := sdec{buf: payload, base: base}
	log := &Log{}
	p := isa.NewProgram("")
	d.in("segment 0 (meta) program")
	var err error
	if p.Name, err = d.str(); err != nil {
		return nil, 0, err
	}
	codeBytes, err := d.byteSlice()
	if err != nil {
		return nil, 0, err
	}
	if p.Code, err = isa.DecodeCode(codeBytes); err != nil {
		return nil, 0, d.fail(err)
	}
	entry, err := d.u()
	if err != nil {
		return nil, 0, err
	}
	p.Entry = int(entry)
	d.in("segment 0 (meta) program data")
	nData, err := d.count(minDataBytes)
	if err != nil {
		return nil, 0, err
	}
	addr := uint64(0)
	for i := uint64(0); i < nData; i++ {
		da, err := d.u()
		if err != nil {
			return nil, 0, err
		}
		addr += da
		if p.Data[addr], err = d.u(); err != nil {
			return nil, 0, err
		}
	}
	d.in("segment 0 (meta) program symbols")
	nSyms, err := d.count(minSymBytes)
	if err != nil {
		return nil, 0, err
	}
	for i := uint64(0); i < nSyms; i++ {
		name, err := d.str()
		if err != nil {
			return nil, 0, err
		}
		at, err := d.u()
		if err != nil {
			return nil, 0, err
		}
		p.Symbols[name] = int(at)
	}
	log.Prog = p

	d.in("segment 0 (meta) run metadata")
	if log.Seed, err = d.i(); err != nil {
		return nil, 0, err
	}
	if log.FinalClock, err = d.u(); err != nil {
		return nil, 0, err
	}
	if log.TotalSteps, err = d.u(); err != nil {
		return nil, 0, err
	}
	dl, err := d.u()
	if err != nil {
		return nil, 0, err
	}
	log.Deadlocked = dl != 0
	nThreads, err := d.u()
	if err != nil {
		return nil, 0, err
	}
	if err := d.done(); err != nil {
		return nil, 0, err
	}
	return log, nThreads, nil
}

// decodeThreadV2 parses one thread segment payload. seg and wantTID come
// from the index; the payload's own thread id must agree.
func decodeThreadV2(payload []byte, base, seg int, wantTID uint32) (*ThreadLog, error) {
	d := sdec{buf: payload, base: base}
	d.in(fmt.Sprintf("segment %d (thread %d) header", seg, wantTID))
	t := &ThreadLog{}
	var v uint64
	var err error
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.TID = int(v)
	if uint64(wantTID) != v {
		return nil, d.fail(fmt.Errorf("thread id %d disagrees with index entry (%d)", v, wantTID))
	}
	if t.StartTS, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.EndTS = t.StartTS + v
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.InitPC = int(v)
	if err = d.sparseRegs(&t.InitRegs); err != nil {
		return nil, err
	}
	if t.Retired, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.EndReason = EndReason(v)
	if t.ExitCode, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	if v != 0 {
		f := &FaultRec{}
		if v, err = d.u(); err != nil {
			return nil, err
		}
		f.Kind = int(v)
		if v, err = d.u(); err != nil {
			return nil, err
		}
		f.PC = int(v)
		if f.Addr, err = d.u(); err != nil {
			return nil, err
		}
		t.Fault = f
	}

	d.in(fmt.Sprintf("segment %d (thread %d) loads", seg, wantTID))
	nLoads, err := d.count(minLoadV2)
	if err != nil {
		return nil, err
	}
	idx, addr := uint64(0), uint64(0)
	t.Loads = make([]LoadRec, 0, nLoads)
	for j := uint64(0); j < nLoads; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		da, err := d.i()
		if err != nil {
			return nil, err
		}
		addr += uint64(da)
		val, err := d.u()
		if err != nil {
			return nil, err
		}
		t.Loads = append(t.Loads, LoadRec{Idx: idx, Addr: addr, Val: val})
	}

	d.in(fmt.Sprintf("segment %d (thread %d) sysrets", seg, wantTID))
	nSys, err := d.count(minSysBytes)
	if err != nil {
		return nil, err
	}
	idx = 0
	t.SysRets = make([]SysRec, 0, nSys)
	for j := uint64(0); j < nSys; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		res, err := d.u()
		if err != nil {
			return nil, err
		}
		t.SysRets = append(t.SysRets, SysRec{Idx: idx, Res: res})
	}

	d.in(fmt.Sprintf("segment %d (thread %d) sequencers", seg, wantTID))
	nSeqs, err := d.count(minSeqV2)
	if err != nil {
		return nil, err
	}
	idx = 0
	ts := uint64(0)
	t.Seqs = make([]Sequencer, 0, nSeqs)
	for j := uint64(0); j < nSeqs; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		dt, err := d.u()
		if err != nil {
			return nil, err
		}
		ts += dt
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		aux := int64(-1)
		if kb&0x80 != 0 {
			if aux, err = d.i(); err != nil {
				return nil, err
			}
		}
		t.Seqs = append(t.Seqs, Sequencer{Idx: idx, TS: ts, Kind: SeqKind(kb & 0x7f), Aux: aux})
	}

	d.in(fmt.Sprintf("segment %d (thread %d) key frames", seg, wantTID))
	nKF, err := d.count(minKFV2)
	if err != nil {
		return nil, err
	}
	idx = 0
	if nKF > 0 {
		t.KeyFrames = make([]KeyFrame, 0, nKF)
	}
	for j := uint64(0); j < nKF; j++ {
		var kf KeyFrame
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		kf.Idx = idx
		pc, err := d.u()
		if err != nil {
			return nil, err
		}
		kf.PC = int(pc)
		if err = d.sparseRegs(&kf.Regs); err != nil {
			return nil, err
		}
		nView, err := d.count(minViewBytes)
		if err != nil {
			return nil, err
		}
		va := uint64(0)
		kf.View = make([]LoadRec, 0, nView)
		for k := uint64(0); k < nView; k++ {
			da, err := d.u()
			if err != nil {
				return nil, err
			}
			va += da
			val, err := d.u()
			if err != nil {
				return nil, err
			}
			kf.View = append(kf.View, LoadRec{Addr: va, Val: val})
		}
		t.KeyFrames = append(t.KeyFrames, kf)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// segSource abstracts where segment bytes come from: a resident buffer
// (zero-copy subslices) or an io.ReaderAt (per-segment reads, so a
// spooled container is never fully materialized).
type segSource interface {
	slice(off int64, n int) ([]byte, error)
}

type byteSource []byte

func (b byteSource) slice(off int64, n int) ([]byte, error) {
	// Bounds were validated against the container size at index parse.
	return b[off : off+int64(n)], nil
}

type fileSource struct{ r io.ReaderAt }

func (f fileSource) slice(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := f.r.ReadAt(buf, off); err != nil {
		return nil, &DecodeError{Offset: int(off), Section: "segment payload", Err: fmt.Errorf("read: %w", err)}
	}
	return buf, nil
}

// v2Index is the parsed header + index of a v2 container.
type v2Index struct {
	entries   []segEntry
	areaStart int
}

// parseV2Index validates the fixed header and the segment index of a
// container of `total` bytes, of which hdr holds at least the header and
// index region. It enforces the canonical packed layout — segment 0 is
// the meta segment, offsets are contiguous in index order, and the last
// segment ends exactly at the end of the container — so overlapping or
// out-of-order index entries are rejected outright.
func parseV2Index(hdr []byte, total int64) (*v2Index, error) {
	fail := func(off int, section string, err error) error {
		return &DecodeError{Offset: off, Section: section, Err: err}
	}
	if len(hdr) < len(fileMagicV2) || string(hdr[:len(fileMagicV2)]) != fileMagicV2 {
		return nil, fail(0, "v2 magic", ErrBadMagic)
	}
	if len(hdr) < v2HeaderLen {
		return nil, fail(len(hdr), "v2 header", ErrTruncated)
	}
	if hdr[5] != v2Version {
		return nil, fail(5, "v2 header", fmt.Errorf("unsupported version %d", hdr[5]))
	}
	if flags := hdr[6]; flags != 0 {
		return nil, fail(6, "v2 header", fmt.Errorf("unknown flags %#x", flags))
	}
	nSegs := binary.LittleEndian.Uint32(hdr[8:12])
	if nSegs == 0 {
		return nil, fail(8, "v2 header", fmt.Errorf("container has no segments"))
	}
	idxLen := int64(nSegs) * v2IndexEntryLen
	areaStart := int64(v2HeaderLen) + idxLen
	if areaStart > total {
		return nil, fail(8, "v2 header", fmt.Errorf("%w: %d index entries with %d bytes total",
			ErrLengthOverflow, nSegs, total))
	}
	if int64(len(hdr)) < areaStart {
		return nil, fail(len(hdr), "v2 index", ErrTruncated)
	}
	idxBytes := hdr[v2HeaderLen:areaStart]
	if crc32.Checksum(idxBytes, crcTable) != binary.LittleEndian.Uint32(hdr[12:16]) {
		return nil, fail(12, "v2 index", errChecksum)
	}

	entries := make([]segEntry, nSegs)
	running := uint64(0)
	for i := range entries {
		b := idxBytes[i*v2IndexEntryLen:]
		e := segEntry{
			kind:   b[0],
			tid:    binary.LittleEndian.Uint32(b[4:8]),
			off:    binary.LittleEndian.Uint64(b[8:16]),
			encLen: binary.LittleEndian.Uint64(b[16:24]),
			rawLen: binary.LittleEndian.Uint64(b[24:32]),
			crc:    binary.LittleEndian.Uint32(b[32:36]),
		}
		entryOff := v2HeaderLen + i*v2IndexEntryLen
		if i == 0 && e.kind != segKindMeta {
			return nil, fail(entryOff, "v2 index", fmt.Errorf("segment 0 is kind %d, want meta", e.kind))
		}
		if i > 0 && e.kind != segKindThread {
			return nil, fail(entryOff, "v2 index", fmt.Errorf("segment %d is kind %d, want thread", i, e.kind))
		}
		if e.off != running {
			return nil, fail(entryOff, "v2 index", fmt.Errorf("segment %d at offset %d, want packed at %d", i, e.off, running))
		}
		// Checked before accumulating so a huge encLen cannot wrap running
		// past the `> total` guard; running <= total holds on entry, so the
		// subtraction is safe.
		if e.encLen > uint64(total)-running {
			return nil, fail(entryOff, "v2 index", ErrTruncated)
		}
		if e.rawLen != e.encLen {
			return nil, fail(entryOff, "v2 index", fmt.Errorf("segment %d raw length %d != encoded %d",
				i, e.rawLen, e.encLen))
		}
		running += e.encLen
		if running > MaxRawLogBytes {
			return nil, fail(entryOff, "v2 index", ErrTooLarge)
		}
		entries[i] = e
	}
	if int64(running)+areaStart != total {
		return nil, fail(int(areaStart), "v2 index",
			fmt.Errorf("segments cover %d bytes, container has %d after index", running, total-areaStart))
	}
	return &v2Index{entries: entries, areaStart: int(areaStart)}, nil
}

// DecodeV2 parses a v2 container. Thread segments fan across
// opts.Jobs workers (internal/sched); the decoded log is identical at
// every worker count. In strict mode any segment fault fails the whole
// log with a typed error; with opts.QuarantineThreads the fault is
// confined to its thread where structurally safe (see V2Options).
func DecodeV2(data []byte, opts V2Options) (*Log, []ThreadFault, error) {
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil {
		opts.Metrics.Counter("decode.v2.rejected").Inc()
		return nil, nil, err
	}
	return decodeV2Segments(byteSource(data), idx, opts)
}

// segmentPayload fetches and checksums one segment's payload. The
// returned base is the payload's container offset for error reporting.
func segmentPayload(src segSource, idx *v2Index, i int, reg *obs.Registry) ([]byte, int, error) {
	e := idx.entries[i]
	off := int64(idx.areaStart) + int64(e.off)
	enc, err := src.slice(off, int(e.encLen))
	if err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(enc, crcTable) != e.crc {
		reg.Counter("decode.v2.crc_errors").Inc()
		return nil, 0, &DecodeError{Offset: int(off), Section: fmt.Sprintf("segment %d", i), Err: errChecksum}
	}
	return enc, int(off), nil
}

func decodeV2Segments(src segSource, idx *v2Index, opts V2Options) (*Log, []ThreadFault, error) {
	reg := opts.Metrics
	reject := func(err error) (*Log, []ThreadFault, error) {
		reg.Counter("decode.v2.rejected").Inc()
		return nil, nil, err
	}
	meta, metaBase, err := segmentPayload(src, idx, 0, reg)
	if err != nil {
		return reject(err)
	}
	log, nThreads, err := decodeMetaV2(meta, metaBase)
	if err != nil {
		return reject(err)
	}
	n := len(idx.entries) - 1
	if nThreads != uint64(n) {
		return reject(&DecodeError{Offset: metaBase, Section: "segment 0 (meta) run metadata",
			Err: fmt.Errorf("meta announces %d threads, index has %d thread segments", nThreads, n)})
	}

	threads := make([]*ThreadLog, n)
	errs := make([]error, n)
	jobs := sched.Normalize(opts.Jobs, 1)
	if jobs > 1 && n > 1 {
		reg.Counter("decode.v2.parallel").Inc()
	}
	sched.ForEach(jobs, n, func(i int) {
		payload, base, err := segmentPayload(src, idx, i+1, reg)
		if err != nil {
			errs[i] = err
			return
		}
		threads[i], errs[i] = decodeThreadV2(payload, base, i+1, idx.entries[i+1].tid)
	})

	var faults []ThreadFault
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !opts.QuarantineThreads {
			return reject(err)
		}
		faults = append(faults, ThreadFault{Segment: i + 1, TID: int(idx.entries[i+1].tid), Err: err})
	}
	if len(faults) == n && n > 0 {
		// Nothing survived: the corruption is not confined, fail the log.
		return reject(faults[0].Err)
	}
	log.Threads = make([]*ThreadLog, 0, n-len(faults))
	for _, t := range threads {
		if t != nil {
			log.Threads = append(log.Threads, t)
		}
	}
	if err := log.Validate(); err != nil {
		// A surviving thread breaks a replay invariant: the damage was
		// not confined to the dropped segments, so the log is condemned.
		reg.Counter("decode.v2.rejected").Inc()
		return nil, nil, err
	}
	reg.Counter("decode.v2.logs").Inc()
	reg.Counter("decode.v2.segments").Add(uint64(len(idx.entries)))
	reg.Counter("decode.v2.quarantined_threads").Add(uint64(len(faults)))
	return log, faults, nil
}

// V2SegmentSpans reports the absolute [start, end) byte range of every
// segment payload in a structurally valid v2 container (segment 0 is
// the meta segment). ok is false when data does not parse as v2.
// Fault-injection support (internal/chaos): layout knowledge stays in
// this package instead of leaking format constants to the injector.
func V2SegmentSpans(data []byte) (spans [][2]int, ok bool) {
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil {
		return nil, false
	}
	spans = make([][2]int, len(idx.entries))
	for i, e := range idx.entries {
		start := idx.areaStart + int(e.off)
		spans[i] = [2]int{start, start + int(e.encLen)}
	}
	return spans, true
}

// RewriteV2Segment applies mutate to segment seg's encoded payload in
// place, then recomputes the segment and index checksums so the
// mutation reaches the segment decoder instead of dying at the CRC
// gate. It reports false when data is not a structurally valid v2
// container or seg is out of range. Fault-injection support: production
// code never rewrites containers.
func RewriteV2Segment(data []byte, seg int, mutate func(payload []byte)) bool {
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil || seg < 0 || seg >= len(idx.entries) {
		return false
	}
	e := idx.entries[seg]
	start := idx.areaStart + int(e.off)
	payload := data[start : start+int(e.encLen)]
	mutate(payload)
	entry := data[v2HeaderLen+seg*v2IndexEntryLen:]
	binary.LittleEndian.PutUint32(entry[32:36], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(data[12:16],
		crc32.Checksum(data[v2HeaderLen:idx.areaStart], crcTable))
	return true
}

// StatsV2 measures log's v2 serialized footprint: RawBytes is the
// container itself, CompressedBytes the container deflated whole (the
// §5.1 zipped-log figure).
func StatsV2(log *Log) SizeStats {
	raw := MarshalV2(log)
	return SizeStats{
		Instructions:    log.Instructions(),
		RawBytes:        len(raw),
		CompressedBytes: len(Compress(raw)),
	}
}
