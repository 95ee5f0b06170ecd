package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmp/internal/mem"
)

func TestRecordInstructions(t *testing.T) {
	r := Record{Gap: 5}
	if got := r.Instructions(); got != 6 {
		t.Errorf("Instructions() = %d, want 6", got)
	}
}

func TestTraceSource(t *testing.T) {
	recs := []Record{{PC: 1, Addr: 64}, {PC: 2, Addr: 128, Gap: 3}}
	tr := NewTrace("t", recs)
	if tr.Name() != "t" || tr.Len() != 2 {
		t.Fatalf("bad trace: %q len %d", tr.Name(), tr.Len())
	}
	var got []Record
	for {
		r, ok := tr.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("replay mismatch: %v", got)
	}
	tr.Reset()
	if r, ok := tr.Next(); !ok || r != recs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := []Record{
		{PC: 0x400123, Addr: 0x7fff0040, Gap: 7},
		{PC: 0x400456, Addr: 0x7fff1080, Gap: 0},
		{PC: ^uint64(0), Addr: mem.Addr(^uint64(0)), Gap: 65535},
	}
	tr := NewTrace("roundtrip", recs)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.Name() != "roundtrip" || back.Len() != len(recs) {
		t.Fatalf("header mismatch: %q %d", back.Name(), back.Len())
	}
	for i, r := range back.Records() {
		if r != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestWriteRefusesWhatReadersReject checks Write's limits: a name of
// maxNameBytes round-trips through Write, Read, OpenFile and Stat; a
// longer one, or a record count beyond 32 bits, is refused with
// ErrBadFormat before any byte is written.
func TestWriteRefusesWhatReadersReject(t *testing.T) {
	recs := []Record{{PC: 1, Addr: 64, Gap: 2}}
	long := strings.Repeat("n", maxNameBytes)
	var buf bytes.Buffer
	if err := Write(&buf, NewTrace(long, recs)); err != nil {
		t.Fatalf("Write with a %d-byte name: %v", len(long), err)
	}
	path := filepath.Join(t.TempDir(), "long.pmpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil || back.Name() != long || back.Len() != 1 || back.Records()[0] != recs[0] {
		t.Fatalf("Read of a %d-byte name: %v", len(long), err)
	}
	if inf, err := Stat(path); err != nil || inf.Name != long {
		t.Fatalf("Stat of a %d-byte name: %v", len(long), err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile of a %d-byte name: %v", len(long), err)
	}
	drainAndCompare(t, src, back)
	src.Close()

	buf.Reset()
	err = Write(&buf, NewTrace(long+"n", recs))
	if !errors.Is(err, ErrBadFormat) || buf.Len() != 0 {
		t.Errorf("Write with a %d-byte name: error %v, %d bytes written", len(long)+1, err, buf.Len())
	}

	if err := checkWritable("t", math.MaxUint32); err != nil {
		t.Errorf("checkWritable at 2^32-1 records: %v", err)
	}
	if n := uint64(math.MaxUint32) + 1; uint64(int(n)) == n {
		if err := checkWritable("t", int(n)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("checkWritable at 2^32 records: %v", err)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Correct magic, bad version.
	var buf bytes.Buffer
	buf.Write([]byte("PMPT"))
	buf.Write(make([]byte, 12)) // version 0
	if _, err := Read(&buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestCollect(t *testing.T) {
	g := NewStream("s", 1, 100, DefaultStreamParams())
	tr := Collect(g, 10)
	if tr.Len() != 10 {
		t.Errorf("Collect(10) len = %d", tr.Len())
	}
	tr = Collect(g, 0)
	if tr.Len() != 100 {
		t.Errorf("Collect(all) len = %d", tr.Len())
	}
}

func generators(n int) []Source {
	return []Source{
		NewStream("stream", 42, n, DefaultStreamParams()),
		NewStride("stride", 42, n, DefaultStrideParams()),
		NewBackward("backward", 42, n, DefaultBackwardParams()),
		NewGraph("graph", 42, n, DefaultGraphParams()),
		NewPointerChase("chase", 42, n, DefaultPointerChaseParams()),
		NewMixed("mixed", 42, n, DefaultMixedParams()),
	}
}

func TestGeneratorsDeterministicAndBounded(t *testing.T) {
	const n = 2000
	for _, g := range generators(n) {
		t.Run(g.Name(), func(t *testing.T) {
			first := Collect(g, 0)
			if first.Len() != n {
				t.Fatalf("emitted %d records, want %d", first.Len(), n)
			}
			second := Collect(g, 0) // Collect resets
			for i := range first.Records() {
				if first.Records()[i] != second.Records()[i] {
					t.Fatalf("record %d differs after Reset", i)
				}
			}
		})
	}
}

func TestStreamIsSequentialPerPC(t *testing.T) {
	g := NewStream("s", 7, 5000, StreamParams{
		Streams: 2, RestartProb: 0, WorkingSet: 1 << 20, GapMean: 2,
	})
	last := map[uint64]uint64{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		id := r.Addr.LineID()
		// Element walks revisit the current line several times, then
		// advance by exactly one line.
		if prev, seen := last[r.PC]; seen && id != prev && id != prev+1 {
			t.Fatalf("stream %#x jumped from line %d to %d", r.PC, prev, id)
		}
		last[r.PC] = id
	}
}

func TestStrideIsConstantPerPC(t *testing.T) {
	g := NewStride("s", 7, 5000, StrideParams{
		Walkers: 1, Strides: []int{3}, WorkingSet: 1 << 20, GapMean: 2, PhaseLen: 1 << 30,
	})
	var prev uint64
	seen := false
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		id := r.Addr.LineID()
		// Each strided line is read a few times, then the walker moves
		// exactly `stride` lines.
		if seen && id != prev && id != prev+3 {
			t.Fatalf("stride walker jumped from %d to %d", prev, id)
		}
		prev, seen = id, true
	}
}

func TestBackwardEntersRegionsHigh(t *testing.T) {
	g := NewBackward("b", 7, 20000, BackwardParams{
		Walkers: 1, WorkingSet: 8 << 20, LocalProb: 0, GapMean: 2,
	})
	// The first access to every fresh region from the backward walker
	// should be at a high offset. Track first-touch offsets.
	firstTouch := map[uint64]int{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		pid := r.Addr.PageID()
		if _, seen := firstTouch[pid]; !seen {
			firstTouch[pid] = r.Addr.PageOffset()
		}
	}
	high := 0
	for _, off := range firstTouch {
		if off == mem.LinesPerPage-1 {
			high++
		}
	}
	if high*10 < len(firstTouch)*9 {
		t.Errorf("only %d/%d regions entered at the top offset", high, len(firstTouch))
	}
}

func TestGraphBurstsAreSequential(t *testing.T) {
	g := NewGraph("g", 7, 5000, GraphParams{
		Vertices: 1 << 16, MaxDegree: 16,
		RankBytes: 4 << 20, EdgeBytes: 16 << 20,
		RandomProb: 0, GapMean: 2,
	})
	var prev uint64
	seen := false
	jumps := 0
	n := 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		id := r.Addr.LineID()
		if seen && id != prev && id != prev+1 {
			jumps++
		}
		prev, seen = id, true
		n++
	}
	// Bursts average several lines of several reads each, so true
	// discontinuities are rare.
	if jumps*4 > n {
		t.Errorf("too many discontinuities: %d of %d", jumps, n)
	}
}

func TestSuiteShape(t *testing.T) {
	specs := Suite()
	if len(specs) != 125 {
		t.Fatalf("suite has %d traces, want 125", len(specs))
	}
	counts := map[Family]int{}
	names := map[string]bool{}
	for _, s := range specs {
		counts[s.Family]++
		if names[s.Name] {
			t.Errorf("duplicate trace name %q", s.Name)
		}
		names[s.Name] = true
		if s.Class != LowMPKI && s.Class != MediumMPKI && s.Class != HighMPKI {
			t.Errorf("trace %q has bad class %q", s.Name, s.Class)
		}
	}
	want := map[Family]int{SPEC06: 38, SPEC17: 36, Ligra: 42, PARSEC: 9}
	for f, n := range want {
		if counts[f] != n {
			t.Errorf("family %s has %d traces, want %d", f, counts[f], n)
		}
	}
}

func TestSuiteGeneratorsWork(t *testing.T) {
	for _, s := range Suite()[:8] {
		g := s.New(100)
		tr := Collect(g, 0)
		if tr.Len() != 100 {
			t.Errorf("%s emitted %d records", s.Name, tr.Len())
		}
	}
}

func TestRepresentativeBalanced(t *testing.T) {
	specs := Representative(12)
	if len(specs) == 0 || len(specs) > 12 {
		t.Fatalf("Representative(12) returned %d specs", len(specs))
	}
	fams := map[Family]bool{}
	for _, s := range specs {
		fams[s.Family] = true
	}
	for _, f := range []Family{SPEC06, SPEC17, Ligra, PARSEC} {
		if !fams[f] {
			t.Errorf("family %s missing from representative subset", f)
		}
	}
	if got := Representative(1000); len(got) != 125 {
		t.Errorf("Representative(1000) should return the whole suite, got %d", len(got))
	}
}

func TestByClass(t *testing.T) {
	m := ByClass(Suite())
	total := 0
	for _, class := range []MPKIClass{LowMPKI, MediumMPKI, HighMPKI} {
		if len(m[class]) == 0 {
			t.Errorf("class %s is empty", class)
		}
		total += len(m[class])
	}
	if total != 125 {
		t.Errorf("classes cover %d traces, want 125", total)
	}
}

func TestByName(t *testing.T) {
	all := Suite()
	for _, want := range all {
		got, ok := ByName(want.Name)
		if !ok || got.Name != want.Name || got.Family != want.Family || got.Class != want.Class {
			t.Errorf("ByName(%q) = (%s/%s/%s, %v), want %s/%s/%s",
				want.Name, got.Name, got.Family, got.Class, ok, want.Name, want.Family, want.Class)
		}
	}
	if len(builtin()) != len(all) {
		t.Errorf("index holds %d names for %d built-in traces: names collide", len(builtin()), len(all))
	}
	for _, name := range []string{"", "no-such-trace", "ext-a"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved", name)
		}
	}
}

// BenchmarkGenerators times one record per iteration from one suite
// trace of each archetype.
func BenchmarkGenerators(b *testing.B) {
	for _, name := range []string{
		"spec06.stream-0", "spec06.stride-1", "spec06.mcf-2",
		"spec06.chase-3", "ligra.graph-200", "spec17.mix-103",
	} {
		sp, ok := ByName(name)
		if !ok {
			b.Fatalf("no trace %s", name)
		}
		b.Run(name, func(b *testing.B) {
			src := sp.New(1 << 20)
			b.ResetTimer()
			for range b.N {
				if _, ok := src.Next(); !ok {
					src.Reset()
				}
			}
		})
	}
}

// BenchmarkWrite times Write per record on a 100,000-record trace.
func BenchmarkWrite(b *testing.B) {
	sp, _ := ByName("spec06.mcf-2")
	tr := Collect(sp.New(100000), 0)
	b.SetBytes(int64(tr.Len() * recordSize))
	b.ResetTimer()
	for range b.N {
		if err := Write(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}
