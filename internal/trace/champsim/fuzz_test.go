package champsim

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// FuzzDecoder mirrors the .pmpt fuzz test one package up: arbitrary
// bytes must never panic the decoder, decoding twice must be
// deterministic, and the only accepted terminations are a clean EOF on
// whole-record inputs or ErrTruncated on ragged ones.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendInstr(nil, Instr{IP: 0x1000, SrcMem: [NumSrcMem]uint64{0xAA}}))
	f.Add(EncodeFixture(GoldenFixture())[:InstrBytes*3+7])
	f.Add(bytes.Repeat([]byte{0xFF}, InstrBytes*2))
	f.Add(bytes.Repeat([]byte{0}, InstrBytes)) // all-zero: no mem operands

	decode := func(data []byte) ([]Record, Stats, error) {
		d := NewDecoder(bytes.NewReader(data))
		var recs []Record
		for {
			r, err := d.Next()
			if err != nil {
				if err == io.EOF {
					return recs, d.Stats(), nil
				}
				return recs, d.Stats(), err
			}
			recs = append(recs, Record{r.PC, uint64(r.Addr), r.Gap, int(r.Dep)})
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs1, st1, err1 := decode(data)
		recs2, st2, err2 := decode(data)
		if (err1 == nil) != (err2 == nil) || st1 != st2 || len(recs1) != len(recs2) {
			t.Fatalf("non-deterministic decode: %v/%v, %+v/%+v", err1, err2, st1, st2)
		}
		for i := range recs1 {
			if recs1[i] != recs2[i] {
				t.Fatalf("record %d differs between decodes", i)
			}
		}
		if len(data)%InstrBytes == 0 && err1 != nil {
			t.Fatalf("whole-record input errored: %v", err1)
		}
		if len(data)%InstrBytes != 0 && err1 == nil {
			t.Fatalf("ragged input (%d bytes) decoded cleanly", len(data))
		}
	})
}

// Record is a comparable snapshot of trace.Record for the fuzz
// determinism check.
type Record struct {
	PC   uint64
	Addr uint64
	Gap  uint16
	Dep  int
}

// FuzzOpenGzip feeds arbitrary bytes through the gzip codec Open uses
// and the decoder: corrupt streams must error, never panic.
func FuzzOpenGzip(f *testing.F) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(AppendInstr(nil, Instr{IP: 1, SrcMem: [NumSrcMem]uint64{0xBB}}))
	zw.Close()
	f.Add(gz.Bytes())
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer rc.Close()
		d := NewDecoder(rc)
		for {
			if _, err := d.Next(); err != nil {
				break
			}
		}
	})
}
