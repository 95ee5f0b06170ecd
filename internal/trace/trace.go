// Package trace defines the instruction-trace format consumed by the
// simulator and provides deterministic synthetic workload generators
// standing in for the paper's 125 SPEC CPU 2006/2017, PARSEC and Ligra
// traces (see DESIGN.md for the substitution argument).
//
// A trace is a sequence of load records; each record carries the number
// of non-memory instructions that precede the load, so a trace of L
// records represents L + sum(Gap) instructions. Stores are not modelled:
// every prefetcher in the paper trains on L1D loads.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"pmp/internal/mem"
)

// DepKind describes a load's address dependency. Dependent loads
// cannot issue until their producer's data returns; they are what make
// prefetching valuable on irregular code.
type DepKind uint8

// Dependency kinds.
const (
	// DepNone: the address comes from an induction variable or constant
	// (array walks) — the load issues as soon as it dispatches.
	DepNone DepKind = iota
	// DepPrev: the address was produced by the immediately preceding
	// load in program order (e.g. rank[edge[i]] where the edge load just
	// ran).
	DepPrev
	// DepChain: the address was produced by the previous load of the
	// same static instruction (pointer chasing: node = node->next).
	DepChain
)

// Record is one load instruction.
type Record struct {
	PC   uint64   // program counter of the load
	Addr mem.Addr // virtual byte address accessed
	Gap  uint16   // non-memory instructions preceding this load
	Dep  DepKind  // address dependency (see DepKind)
}

// Instructions returns the instruction count the record represents.
func (r Record) Instructions() uint64 { return uint64(r.Gap) + 1 }

// Source is a replayable stream of records. Generators regenerate
// deterministically on Reset; file and in-memory sources rewind.
type Source interface {
	// Name returns a stable identifier for reports.
	Name() string
	// Next returns the next record; ok is false at end of trace.
	Next() (r Record, ok bool)
	// Reset restarts the source from the beginning.
	Reset()
}

// Trace is an in-memory source.
type Trace struct {
	name string
	recs []Record
	pos  int
}

// NewTrace wraps records in a Source.
func NewTrace(name string, recs []Record) *Trace {
	return &Trace{name: name, recs: recs}
}

// Name implements Source.
func (t *Trace) Name() string { return t.name }

// Next implements Source.
func (t *Trace) Next() (Record, bool) {
	if t.pos >= len(t.recs) {
		return Record{}, false
	}
	r := t.recs[t.pos]
	t.pos++
	return r, true
}

// Reset implements Source.
func (t *Trace) Reset() { t.pos = 0 }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.recs) }

// Records returns the underlying slice (not a copy).
func (t *Trace) Records() []Record { return t.recs }

// Collect materializes up to max records from a source (all records if
// max <= 0).
func Collect(s Source, max int) *Trace {
	var recs []Record
	s.Reset()
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
		if max > 0 && len(recs) >= max {
			break
		}
	}
	return NewTrace(s.Name(), recs)
}

// --- binary trace files ---

var magic = [4]byte{'P', 'M', 'P', 'T'}

const formatVersion = 2

// ErrBadFormat is returned when a trace file is malformed.
var ErrBadFormat = errors.New("trace: bad file format")

// writeBlockRecords is the number of records Write encodes per call to
// the underlying writer: 4,096 records, 76 KB. Smaller blocks write
// measurably slower; larger ones gain little.
const writeBlockRecords = 4096

// writeBlocks recycles Write's encoding block, so writing many traces in
// a row allocates it once.
var writeBlocks = sync.Pool{New: func() any { return new([writeBlockRecords * recordSize]byte) }}

// Write serializes a trace: a 16-byte header (magic, version, record
// count, name length) followed by the name and fixed-width records. It
// refuses, before writing anything, a trace the readers would reject:
// a name longer than 4,096 bytes, or more records than the header's
// 32-bit count holds.
func Write(w io.Writer, t *Trace) error {
	if err := checkWritable(t.name, len(t.recs)); err != nil {
		return err
	}
	blk := writeBlocks.Get().(*[writeBlockRecords * recordSize]byte)
	defer writeBlocks.Put(blk)
	b := append(blk[:0], magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.recs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.name)))
	b = append(b, t.name...)
	for recs := t.recs; ; {
		n := min(len(recs), (len(blk)-len(b))/recordSize)
		out := blk[len(b) : len(b)+n*recordSize]
		for i, r := range recs[:n] {
			encodeRecord(out[i*recordSize:], r)
		}
		b = b[:len(b)+len(out)]
		if _, err := w.Write(b); err != nil {
			return err
		}
		if recs = recs[n:]; len(recs) == 0 {
			return nil
		}
		b = blk[:0]
	}
}

// checkWritable returns an error wrapping ErrBadFormat when a trace of
// this name and record count would not read back.
func checkWritable(name string, records int) error {
	if len(name) > maxNameBytes {
		return fmt.Errorf("%w: name length %d exceeds %d", ErrBadFormat, len(name), maxNameBytes)
	}
	if uint64(records) > math.MaxUint32 {
		return fmt.Errorf("%w: %d records exceed the header's limit of %d", ErrBadFormat, records, uint64(math.MaxUint32))
	}
	return nil
}

// Read deserializes a trace written by Write. It is the reference
// decoder that FileSource is checked against.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	name, n, err := parseHeader(br)
	if err != nil {
		return nil, err
	}
	// Do not trust the header's record count for allocation: a corrupt
	// file must not force a giant up-front slice. Read bounded chunks
	// sized exactly by the data that actually arrives, then concatenate
	// once — appending into one growing slice instead would re-copy
	// every already-read record at each doubling (FullScale traces run
	// to millions of records).
	const chunkRecords = 1 << 20
	var chunks [][]Record
	var rec [19]byte
	for read := 0; read < n; {
		chunk := make([]Record, 0, min(n-read, chunkRecords))
		for len(chunk) < cap(chunk) {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("trace: reading record %d: %w", read, err)
			}
			chunk = append(chunk, decodeRecord(rec[:]))
			read++
		}
		chunks = append(chunks, chunk)
	}
	if len(chunks) == 1 {
		return NewTrace(name, chunks[0]), nil
	}
	recs := make([]Record, 0, n)
	for _, c := range chunks {
		recs = append(recs, c...)
	}
	return NewTrace(name, recs), nil
}
