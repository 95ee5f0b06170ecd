package stride

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func access(p *Prefetcher, pc uint64, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: pc, Addr: mem.Addr(line * mem.LineBytes)})
	return p.IssueInto(nil, 64)
}

func TestStrideDetectsConstantStride(t *testing.T) {
	p := New()
	var got []prefetch.Request
	for i := uint64(0); i < 6; i++ {
		got = access(p, 0x400, 100+3*i)
	}
	if len(got) == 0 {
		t.Fatal("confident stride should prefetch")
	}
	// Last access was line 115; expect 118, 121, ...
	if got[0].Addr.LineID() != 118 {
		t.Errorf("first target line = %d, want 118", got[0].Addr.LineID())
	}
	for i := 1; i < len(got); i++ {
		if got[i].Addr.LineID() != got[i-1].Addr.LineID()+3 {
			t.Errorf("targets not strided: %d then %d",
				got[i-1].Addr.LineID(), got[i].Addr.LineID())
		}
	}
}

func TestStrideNeedsConfidence(t *testing.T) {
	p := New()
	if got := access(p, 0x400, 100); len(got) != 0 {
		t.Error("first access should not prefetch")
	}
	if got := access(p, 0x400, 103); len(got) != 0 {
		t.Error("first stride observation should not prefetch")
	}
}

func TestStrideResetsOnChange(t *testing.T) {
	p := New()
	for i := uint64(0); i < 5; i++ {
		access(p, 0x400, 100+3*i)
	}
	// Break the stride: confidence resets.
	if got := access(p, 0x400, 500); len(got) != 0 {
		t.Error("stride change should suppress prefetching")
	}
	if got := access(p, 0x400, 503); len(got) != 0 {
		t.Error("confidence must rebuild before prefetching")
	}
}

func TestStrideZeroStrideIgnored(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		if got := access(p, 0x400, 100); len(got) != 0 {
			t.Fatal("same-line accesses must not prefetch")
		}
	}
}

func TestStrideNegative(t *testing.T) {
	p := New()
	var got []prefetch.Request
	for i := int64(0); i < 6; i++ {
		got = access(p, 0x400, uint64(1000-2*i))
	}
	if len(got) == 0 {
		t.Fatal("negative strides should prefetch")
	}
	if got[0].Addr.LineID() != 988 {
		t.Errorf("first target = %d, want 988", got[0].Addr.LineID())
	}
}

func TestStridePerPCIsolation(t *testing.T) {
	p := New()
	// Interleave two PCs with different strides; both should lock on.
	var gotA, gotB []prefetch.Request
	for i := uint64(0); i < 6; i++ {
		gotA = access(p, 0x400, 100+2*i)
		gotB = access(p, 0x888, 5000+7*i)
	}
	if len(gotA) == 0 || len(gotB) == 0 {
		t.Fatal("both PCs should be confident")
	}
	if gotA[0].Addr.LineID() != 112 { // 110 + 2
		t.Errorf("PC A first target = %d, want 112", gotA[0].Addr.LineID())
	}
	if gotB[0].Addr.LineID() != 5042 { // 5035 + 7
		t.Errorf("PC B first target = %d, want 5042", gotB[0].Addr.LineID())
	}
}
