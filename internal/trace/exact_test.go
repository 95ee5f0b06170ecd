package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// These digests pin the exact output of the generators and of Write.
// A change that alters one output bit fails here; regenerating them is
// a deliberate change to every simulated result, made on its own.
const (
	// suiteStreamDigest covers every suite trace: suiteFirst records,
	// a Reset, then suiteAgain more.
	suiteStreamDigest = "680fe26c061a7d1801002c87b0921c63d5b37c7db6f9ea21f35dc30d7ac77a9a"
	// writeBytesDigest is Write's output for writeBytesTrace at
	// writeBytesRecords records.
	writeBytesDigest = "f43f83696f1811b7521c926493d630e12a58b81e9667c22c61459af4300073ec"
)

const (
	suiteFirst        = 20000
	suiteAgain        = 10000
	writeBytesTrace   = "spec06.mcf-2"
	writeBytesRecords = 10000
)

// TestSuiteStreamDigest hashes every suite trace's records, across
// Mixed's phase changes and a Reset, so any generator edit that changes
// one record fails it.
func TestSuiteStreamDigest(t *testing.T) {
	h := sha256.New()
	var b []byte
	for _, sp := range Suite() {
		src := sp.New(suiteFirst)
		b = append(b[:0], sp.Name...)
		n := 0
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			b = appendRecordFields(b, r)
			n++
		}
		if n != suiteFirst {
			t.Fatalf("%s emitted %d records, want %d", sp.Name, n, suiteFirst)
		}
		src.Reset()
		for range suiteAgain {
			r, ok := src.Next()
			if !ok {
				t.Fatalf("%s ended early after Reset", sp.Name)
			}
			b = appendRecordFields(b, r)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != suiteStreamDigest {
		t.Errorf("suite stream digest = %s, want %s", got, suiteStreamDigest)
	}
}

// appendRecordFields appends r's fields little-endian, independently
// of the file encoder.
func appendRecordFields(b []byte, r Record) []byte {
	b = binary.LittleEndian.AppendUint64(b, r.PC)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Addr))
	b = binary.LittleEndian.AppendUint16(b, r.Gap)
	return append(b, byte(r.Dep))
}

// TestWriteBytes pins Write's output for one suite trace long enough to
// span several encoding blocks.
func TestWriteBytes(t *testing.T) {
	sp, ok := ByName(writeBytesTrace)
	if !ok {
		t.Fatalf("no trace %s", writeBytesTrace)
	}
	tr := Collect(sp.New(writeBytesRecords), 0)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if want := headerSize + len(writeBytesTrace) + writeBytesRecords*recordSize; buf.Len() != want {
		t.Fatalf("Write produced %d bytes, want %d", buf.Len(), want)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != writeBytesDigest {
		t.Errorf("Write digest = %s, want %s", got, writeBytesDigest)
	}
}
