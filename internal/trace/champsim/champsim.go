// Package champsim decodes ChampSim/DPC-3 instruction traces — the
// format the paper's original evaluation (and DSPatch's, and Gaze's)
// runs on — into this repository's load-record stream, so downloaded
// SPEC CPU 2006/2017, PARSEC and Ligra trace sets drop into every
// experiment next to the synthetic suite.
//
// # On-disk format
//
// A ChampSim trace is a flat array of fixed-size 64-byte records, one
// per retired instruction, little-endian, no header:
//
//	offset  size  field
//	0       8     ip                        instruction pointer
//	8       1     is_branch
//	9       1     branch_taken
//	10      2     destination_registers[2]  0 = unused slot
//	12      4     source_registers[4]       0 = unused slot
//	16      16    destination_memory[2]     store addresses, 0 = unused
//	32      32    source_memory[4]          load addresses, 0 = unused
//
// (ChampSim's trace_instr_format_t with NUM_INSTR_DESTINATIONS=2 and
// NUM_INSTR_SOURCES=4; the layout has no padding, so the struct size
// equals the field sum.) Distributed trace sets are xz- or
// gzip-compressed; see Open.
//
// # Field mapping
//
// The decoder filters the instruction stream to L1D load accesses and
// emits one trace.Record per non-zero source-memory operand (every
// prefetcher in the paper trains on L1D loads; stores and branches
// advance the instruction count only):
//
//	trace.Record  from
//	------------  ----------------------------------------------------
//	PC            ip of the load instruction (operands share it)
//	Addr          the source_memory operand (virtual byte address)
//	Gap           run length of preceding instructions that emitted no
//	              load record (stores, branches, ALU ops), clamped to
//	              65535; extra operands of the same instruction get 0
//	Dep           register def-use between loads, see below
//
// Dep is inferred from the architectural register file: the decoder
// tracks, per register, the instruction that last wrote it. A load
// whose source registers include one written by an earlier load maps
// to DepChain when that writer has the same ip (pointer chasing:
// node = node->next feeding itself across iterations) and to DepPrev
// when the writer produced the immediately preceding load record in
// program order (e.g. rank[edge[i]]). Anything else — induction
// variables, constants, registers written by non-loads — is DepNone.
// Register number 0 marks an unused operand slot in ChampSim traces
// and never participates.
package champsim

import "encoding/binary"

// Geometry of the fixed-size instruction record.
const (
	// InstrBytes is the size of one on-disk instruction record.
	InstrBytes = 64
	// NumDestRegs and NumSrcRegs are the register operand slot counts.
	NumDestRegs = 2
	NumSrcRegs  = 4
	// NumDestMem and NumSrcMem are the memory operand slot counts.
	NumDestMem = 2
	NumSrcMem  = 4
)

// Instr is one decoded ChampSim instruction record. Zero values in
// the operand arrays mark unused slots, as in the on-disk format.
type Instr struct {
	IP          uint64
	IsBranch    bool
	BranchTaken bool
	DestRegs    [NumDestRegs]uint8
	SrcRegs     [NumSrcRegs]uint8
	DestMem     [NumDestMem]uint64
	SrcMem      [NumSrcMem]uint64
}

// decodeInstr decodes one 64-byte record (len(b) >= InstrBytes).
func decodeInstr(b []byte) Instr {
	var in Instr
	in.IP = binary.LittleEndian.Uint64(b[0:])
	in.IsBranch = b[8] != 0
	in.BranchTaken = b[9] != 0
	for i := 0; i < NumDestRegs; i++ {
		in.DestRegs[i] = b[10+i]
	}
	for i := 0; i < NumSrcRegs; i++ {
		in.SrcRegs[i] = b[12+i]
	}
	for i := 0; i < NumDestMem; i++ {
		in.DestMem[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	for i := 0; i < NumSrcMem; i++ {
		in.SrcMem[i] = binary.LittleEndian.Uint64(b[32+8*i:])
	}
	return in
}

// AppendInstr appends the 64-byte encoding of in to dst and returns
// the extended slice. It is the exact inverse of the decoder's record
// parsing and exists so tests and fixtures hand-build golden binaries
// instead of depending on external trace files.
func AppendInstr(dst []byte, in Instr) []byte {
	var b [InstrBytes]byte
	binary.LittleEndian.PutUint64(b[0:], in.IP)
	if in.IsBranch {
		b[8] = 1
	}
	if in.BranchTaken {
		b[9] = 1
	}
	for i := 0; i < NumDestRegs; i++ {
		b[10+i] = in.DestRegs[i]
	}
	for i := 0; i < NumSrcRegs; i++ {
		b[12+i] = in.SrcRegs[i]
	}
	for i := 0; i < NumDestMem; i++ {
		binary.LittleEndian.PutUint64(b[16+8*i:], in.DestMem[i])
	}
	for i := 0; i < NumSrcMem; i++ {
		binary.LittleEndian.PutUint64(b[32+8*i:], in.SrcMem[i])
	}
	return append(dst, b[:]...)
}
