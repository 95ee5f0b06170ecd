package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pmp/internal/mem"
)

// recordSize is the on-disk size of one fixed-width record.
const recordSize = 19

// headerSize is the fixed prefix before the trace name: magic (4),
// version (4), record count (4), name length (4).
const headerSize = 16

// maxNameBytes is the longest trace name the readers accept.
const maxNameBytes = 4096

// encodeRecord encodes r into b (len >= recordSize): the inverse of
// decodeRecord.
func encodeRecord(b []byte, r Record) {
	_ = b[recordSize-1]
	binary.LittleEndian.PutUint64(b[0:], r.PC)
	binary.LittleEndian.PutUint64(b[8:], uint64(r.Addr))
	binary.LittleEndian.PutUint16(b[16:], r.Gap)
	b[18] = byte(r.Dep)
}

// decodeRecord decodes one fixed-width record from b (len >=
// recordSize).
//
//pmp:hotpath
func decodeRecord(b []byte) Record {
	return Record{
		PC:   binary.LittleEndian.Uint64(b[0:]),
		Addr: mem.Addr(binary.LittleEndian.Uint64(b[8:])),
		Gap:  binary.LittleEndian.Uint16(b[16:]),
		Dep:  DepKind(b[18]),
	}
}

// parseHeader reads and validates the header Write emits and the name
// that follows it, returning the name and the record count.
func parseHeader(r io.Reader) (name string, count int, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) != magic {
		return "", 0, ErrBadFormat
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion {
		return "", 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > maxNameBytes {
		return "", 0, fmt.Errorf("%w: unreasonable name length %d", ErrBadFormat, nameLen)
	}
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nb); err != nil {
		return "", 0, fmt.Errorf("trace: reading name: %w", err)
	}
	return string(nb), int(binary.LittleEndian.Uint32(hdr[8:])), nil
}

// Info summarizes a trace file's header without decoding its records.
type Info struct {
	Path      string
	Name      string // embedded trace name
	Version   int    // format version
	Records   int    // record count from the header
	SizeBytes int64  // file size on disk
}

// Stat reads and validates a trace file's header. Unlike Read it does
// not touch the record payload, so it is O(1) in the trace length.
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	return readHeader(f)
}

// readHeader parses the header of an open trace file and checks that
// the file is long enough to hold every record the header promises.
func readHeader(f *os.File) (Info, error) {
	name, count, err := parseHeader(f)
	if err != nil {
		return Info{}, fmt.Errorf("%s: %w", f.Name(), err)
	}
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	want := int64(headerSize) + int64(len(name)) + int64(count)*recordSize
	if st.Size() < want {
		return Info{}, fmt.Errorf("%s: %w: truncated: %d bytes, header promises %d",
			f.Name(), ErrBadFormat, st.Size(), want)
	}
	return Info{Path: f.Name(), Name: name, Version: formatVersion, Records: count, SizeBytes: st.Size()}, nil
}

// windowRecords sizes the FileSource read window. 1024 records is 19KB
// — comfortably L2-resident while amortizing syscalls.
const windowRecords = 1024

// FileSource streams a .pmpt trace file, decoding records lazily on
// Next instead of materializing the whole trace up front (Read copies
// a FullScale trace — tens of millions of records — into the heap
// before the first access is simulated; FileSource starts in O(1)).
// Records are read through a sliding io.ReaderAt window of
// windowRecords records, so memory use is independent of the trace
// length.
type FileSource struct {
	name  string
	count int // records served before end of trace
	f     *os.File
	off   int64 // file offset of the first record
	pos   int   // next record index

	win      []byte // windowRecords*recordSize bytes
	winStart int    // record index at win[0]
	winLen   int    // valid records in win
}

// OpenFile opens a trace file for lazy streaming. The caller must
// Close the source when done (Sources handed to the simulator outlive
// every Reset/replay cycle, so Close is not part of the Source
// contract).
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	inf, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{
		name:  inf.Name,
		count: inf.Records,
		f:     f,
		off:   int64(headerSize + len(inf.Name)),
		win:   make([]byte, windowRecords*recordSize),
	}, nil
}

// Name implements Source.
func (s *FileSource) Name() string { return s.name }

// Len returns the number of records the source serves.
func (s *FileSource) Len() int { return s.count }

// Next implements Source.
//
//pmp:hotpath
func (s *FileSource) Next() (Record, bool) {
	if s.pos >= s.count {
		return Record{}, false
	}
	if s.pos < s.winStart || s.pos >= s.winStart+s.winLen {
		if !s.fillWindow(s.pos) {
			return Record{}, false
		}
	}
	r := decodeRecord(s.win[(s.pos-s.winStart)*recordSize:])
	s.pos++
	return r, true
}

// fillWindow slides the window to start at record index start, which
// must be below count. It reports whether the records were read.
func (s *FileSource) fillWindow(start int) bool {
	n := min(windowRecords, s.count-start)
	want := n * recordSize
	got, err := s.f.ReadAt(s.win[:want], s.off+int64(start)*recordSize)
	if got < want && err != nil {
		// readHeader verified the payload exists; a short read here is
		// the file shrinking underneath us. Treat it as end of trace.
		s.winLen = 0
		return false
	}
	s.winStart = start
	s.winLen = n
	return true
}

// Reset implements Source.
func (s *FileSource) Reset() { s.pos = 0 }

// Close closes the file.
func (s *FileSource) Close() error { return s.f.Close() }
