package prefetch

import (
	"math/rand"
	"testing"

	"pmp/internal/mem"
)

// The issue path drains every prefetcher through OutQueue.PopInto with
// a reused buffer; a steady-state Push/PopInto cycle must therefore be
// allocation-free once the queue's backing slice has grown.

func TestOutQueuePopIntoAppends(t *testing.T) {
	q := NewOutQueue(4)
	for i := 0; i < 4; i++ {
		q.Push(Request{Addr: mem.Addr(i * 64), Level: LevelL1})
	}
	dst := []Request{{Addr: 4096, Level: LevelL2}}
	dst = q.PopInto(dst, 2)
	if len(dst) != 3 {
		t.Fatalf("PopInto appended %d requests, want 2 after the seed entry", len(dst)-1)
	}
	if dst[0].Addr != 4096 {
		t.Errorf("PopInto clobbered existing dst contents: %+v", dst[0])
	}
	if dst[1].Addr != 0 || dst[2].Addr != 64 {
		t.Errorf("PopInto order wrong: got %+v", dst[1:])
	}
	if q.Len() != 2 {
		t.Errorf("queue should retain 2 requests, has %d", q.Len())
	}
	// Drained lines must be re-pushable (dedup entry released).
	if !q.Push(Request{Addr: 0, Level: LevelL1}) {
		t.Error("drained line rejected as duplicate")
	}
}

func TestOutQueuePushPopIntoDoesNotAllocate(t *testing.T) {
	q := NewOutQueue(8)
	buf := make([]Request, 0, 8)
	addr := mem.Addr(0)
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			q.Push(Request{Addr: addr, Level: LevelL1})
			addr += 64
		}
		buf = q.PopInto(buf[:0], 8)
	})
	if avg != 0 {
		t.Errorf("steady-state Push/PopInto allocates %.3f allocs/cycle, want 0", avg)
	}
}

// A non-positive capacity must yield a queue that accepts nothing
// rather than panicking (regression: NewOutQueue(-1) used to panic
// allocating the dedup map with a negative size hint).
func TestOutQueueNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		q := NewOutQueue(c)
		if q.Len() != 0 {
			t.Fatalf("NewOutQueue(%d): Len=%d, want 0", c, q.Len())
		}
		if q.Push(Request{Addr: 64, Level: LevelL1}) {
			t.Fatalf("NewOutQueue(%d) accepted a push", c)
		}
		if q.Len() != 0 {
			t.Fatalf("NewOutQueue(%d): Len=%d after a rejected push, want 0", c, q.Len())
		}
		if got := q.PopInto(nil, 4); len(got) != 0 {
			t.Fatalf("NewOutQueue(%d) popped %d requests", c, len(got))
		}
	}
}

// Push drains in strict arrival order.
func TestOutQueuePushIsFIFO(t *testing.T) {
	q := NewOutQueue(64)
	rng := rand.New(rand.NewSource(9))
	var want []mem.Addr
	for i := 0; i < 64; i++ {
		a := mem.Addr(rng.Intn(1<<20) * 64)
		if q.Push(Request{Addr: a, Level: LevelL1}) {
			want = append(want, a)
		}
	}
	got := q.PopInto(nil, 64)
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Addr != want[i] {
			t.Fatalf("FIFO order broken at %d: got %#x, want %#x", i, got[i].Addr, want[i])
		}
	}
}

// The region bitmap must suppress duplicate lines while distinct lines
// in the same 4KB region coexist, and a drained line must become
// pushable again.
func TestOutQueueRegionDedup(t *testing.T) {
	q := NewOutQueue(8)
	if !q.Push(Request{Addr: 0x1000, Level: LevelL1}) {
		t.Fatal("first push rejected")
	}
	if q.Push(Request{Addr: 0x1000, Level: LevelL2}) {
		t.Fatal("duplicate line accepted")
	}
	if !q.Push(Request{Addr: 0x1040, Level: LevelL1}) {
		t.Fatal("distinct line in same region rejected")
	}
	if got := q.PopInto(nil, 1); len(got) != 1 || got[0].Addr != 0x1000 {
		t.Fatalf("pop = %+v", got)
	}
	if !q.Push(Request{Addr: 0x1000, Level: LevelL1}) {
		t.Fatal("drained line still counted as duplicate")
	}
}

// Seeded push/pop churn against a reference model — a FIFO slice that
// rejects pushes when full or when the line is already queued — at
// capacities that make the ring's head and tail wrap, 3 among them
// so the wrap is not at a power-of-two size.
func TestOutQueueVsReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 32} {
		rng := rand.New(rand.NewSource(1234))
		q := NewOutQueue(capacity)
		var model []Request
		inModel := func(a mem.Addr) bool {
			for _, r := range model {
				if r.Addr == a {
					return true
				}
			}
			return false
		}
		for step := 0; step < 5000; step++ {
			if rng.Intn(3) != 0 {
				r := Request{Addr: mem.Addr(rng.Intn(256) * 64), Level: Level(1 + rng.Intn(3))}
				accepted := q.Push(r)
				wantAccept := len(model) < capacity && !inModel(r.Addr)
				if accepted != wantAccept {
					t.Fatalf("cap %d step %d: push %#x accepted=%v, model wants %v",
						capacity, step, r.Addr, accepted, wantAccept)
				}
				if accepted {
					model = append(model, r)
				}
			} else {
				n := rng.Intn(4) + 1
				got := q.PopInto(nil, n)
				if want := min(n, len(model)); len(got) != want {
					t.Fatalf("cap %d step %d: PopInto(%d) returned %d, model has %d",
						capacity, step, n, len(got), want)
				}
				for i, r := range got {
					if r != model[i] {
						t.Fatalf("cap %d step %d: popped %+v, model wants %+v", capacity, step, r, model[i])
					}
				}
				model = model[len(got):]
			}
			if q.Len() != len(model) {
				t.Fatalf("cap %d step %d: Len = %d, model %d", capacity, step, q.Len(), len(model))
			}
		}
	}
}
