package prefetch

import (
	"testing"

	"pmp/internal/mem"
)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelNone: "none", LevelL1: "L1D", LevelL2: "L2C", LevelLLC: "LLC",
		Level(9): "invalid",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", l, got, want)
		}
	}
}

func TestLevelDowngrade(t *testing.T) {
	if LevelL1.Downgrade() != LevelL2 {
		t.Error("L1 should downgrade to L2")
	}
	if LevelL2.Downgrade() != LevelLLC {
		t.Error("L2 should downgrade to LLC")
	}
	if LevelLLC.Downgrade() != LevelLLC {
		t.Error("LLC should downgrade to itself")
	}
	if LevelNone.Downgrade() != LevelNone {
		t.Error("none should stay none")
	}
}

func TestNopIsInert(t *testing.T) {
	var p Prefetcher = Nop{}
	p.Train(Access{PC: 1, Addr: 64})
	if got := p.IssueInto(nil, 8); got != nil {
		t.Errorf("Nop issued %v", got)
	}
	dst := []Request{{Addr: 64, Level: LevelL1}}
	if got := IssueInto(p, dst, 4); len(got) != 1 || got[0] != dst[0] {
		t.Errorf("IssueInto(Nop) changed dst to %v", got)
	}
	if p.StorageBits() != 0 {
		t.Error("Nop should cost 0 bits")
	}
	if p.Name() != "none" {
		t.Errorf("Nop name = %q", p.Name())
	}
}

func TestOutQueueFIFO(t *testing.T) {
	q := NewOutQueue(4)
	for i := 0; i < 3; i++ {
		if !q.Push(Request{Addr: mem.Addr(i * 64), Level: LevelL1}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	got := q.PopInto(nil, 2)
	if len(got) != 2 || got[0].Addr != 0 || got[1].Addr != 64 {
		t.Fatalf("PopInto(nil, 2) = %v", got)
	}
	got = q.PopInto(nil, 10)
	if len(got) != 1 || got[0].Addr != 128 {
		t.Fatalf("second PopInto = %v", got)
	}
	if q.Len() != 0 {
		t.Error("queue should be empty")
	}
}

func TestOutQueueDedupAndCapacity(t *testing.T) {
	q := NewOutQueue(2)
	if !q.Push(Request{Addr: 100, Level: LevelL1}) { // aligns to 64
		t.Fatal("first push rejected")
	}
	if q.Push(Request{Addr: 64, Level: LevelL2}) {
		t.Error("duplicate line should be rejected")
	}
	if !q.Push(Request{Addr: 128, Level: LevelL1}) {
		t.Fatal("second push rejected")
	}
	if q.Push(Request{Addr: 256, Level: LevelL1}) {
		t.Error("push beyond capacity should be rejected")
	}
	// After popping, the line can be requested again.
	q.PopInto(nil, 2)
	if !q.Push(Request{Addr: 64, Level: LevelL1}) {
		t.Error("line should be pushable again after pop")
	}
}

func TestOutQueuePopZero(t *testing.T) {
	q := NewOutQueue(2)
	q.Push(Request{Addr: 64})
	if got := q.PopInto(nil, 0); got != nil {
		t.Errorf("PopInto(nil, 0) = %v, want nil", got)
	}
	if got := q.PopInto(nil, -1); got != nil {
		t.Errorf("PopInto(nil, -1) = %v, want nil", got)
	}
}
