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

// Write serializes a trace: a 16-byte header (magic, version, record
// count, name length) followed by the name and fixed-width records.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(t.recs)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.name); err != nil {
		return err
	}
	var rec [19]byte
	for _, r := range t.recs {
		binary.LittleEndian.PutUint64(rec[0:], r.PC)
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Addr))
		binary.LittleEndian.PutUint16(rec[16:], r.Gap)
		rec[18] = byte(r.Dep)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
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
