package dram

import "testing"

func cfg() Config {
	return Config{Channels: 1, TransferMTps: 3200, BusBytes: 8, CoreClockMHz: 4000, LatencyCycles: 80}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Channels: 0, TransferMTps: 1, BusBytes: 1, CoreClockMHz: 1},
		{Channels: 1, TransferMTps: 0, BusBytes: 1, CoreClockMHz: 1},
		{Channels: 1, TransferMTps: 1, BusBytes: 0, CoreClockMHz: 1},
		{Channels: 1, TransferMTps: 1, BusBytes: 1, CoreClockMHz: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestTransferCycles(t *testing.T) {
	// 64B line / 8B bus = 8 transfers; 4000MHz/3200MT/s = 1.25 cyc each
	// => 10 cycles.
	if got := cfg().TransferCycles(); got != 10 {
		t.Errorf("TransferCycles = %d, want 10", got)
	}
	// 800 MT/s: 8 * 4000/800 = 40 cycles.
	c := cfg()
	c.TransferMTps = 800
	if got := c.TransferCycles(); got != 40 {
		t.Errorf("TransferCycles(800) = %d, want 40", got)
	}
}

func TestAccessLatencyAndQueueing(t *testing.T) {
	d := New(cfg())
	// First access at cycle 0: transfer 10 + latency 80 = 90.
	if got := d.Access(0, 0, true); got != 90 {
		t.Errorf("first access completes at %d, want 90", got)
	}
	// Second access at cycle 0 queues behind the first transfer:
	// starts at 10, completes at 10+10+80 = 100.
	if got := d.Access(1, 0, true); got != 100 {
		t.Errorf("queued access completes at %d, want 100", got)
	}
	// An access far in the future sees an idle channel.
	if got := d.Access(2, 1000, true); got != 1090 {
		t.Errorf("idle access completes at %d, want 1090", got)
	}
}

func TestChannelsIndependent(t *testing.T) {
	c := cfg()
	c.Channels = 2
	d := New(c)
	// Lines 0 and 1 map to different channels; both start immediately.
	if got := d.Access(0, 0, true); got != 90 {
		t.Errorf("ch0 completes at %d, want 90", got)
	}
	if got := d.Access(1, 0, true); got != 90 {
		t.Errorf("ch1 completes at %d, want 90 (independent channel)", got)
	}
}

func TestStats(t *testing.T) {
	d := New(cfg())
	d.Access(1, 0, true)
	d.Access(2, 0, false)
	s := d.Stats()
	if s.Requests != 2 || s.DemandRequests != 1 || s.PrefetchRequests != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BusyCycles != 20 {
		t.Errorf("busy = %d, want 20", s.BusyCycles)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats should zero counters")
	}
}

func TestBandwidthScalesThroughput(t *testing.T) {
	// Saturating a slow channel should finish much later than a fast one.
	finish := func(mtps int) uint64 {
		c := cfg()
		c.TransferMTps = mtps
		d := New(c)
		var done uint64
		for i := 0; i < 100; i++ {
			done = d.Access(uint64(i), 0, true)
		}
		return done
	}
	slow, fast := finish(800), finish(3200)
	if slow <= fast*3 {
		t.Errorf("800MT/s (%d) should be ~4x slower than 3200MT/s (%d)", slow, fast)
	}
}
