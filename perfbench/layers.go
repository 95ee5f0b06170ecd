package main

import (
	"time"

	"pmp/internal/cache"
	"pmp/internal/cpu"
	"pmp/internal/dram"
	"pmp/internal/mem"
	"pmp/internal/sim"
	"pmp/internal/tlb"
	"pmp/internal/trace"
)

// Layer rows: each simulator component driven alone through its public
// API over streams derived from the workload's own traces, timing whole
// loops. Together they split the simulator's self time per access.
const (
	rowL1D = iota
	rowL2C
	rowLLC
	rowDRAM
	rowTLB
	rowCPU
	numRows
)

// Stream timing for the cache rows. The rows measure host cost, not
// simulated timing, so rough constants suffice: one demand access every
// cyclesPerAccess cycles (about one load per four instructions at IPC 1)
// and a miss completing missCycles later.
const (
	cyclesPerAccess = 4
	missCycles      = 100
	loadCycles      = 5
)

// layerCost accumulates, per row, the items replayed and the host time.
type layerCost struct {
	items [numRows]uint64
	ns    [numRows]int64

	genRecords uint64
	genNS      int64
}

func (lc *layerCost) nsPer(row int) float64 {
	return ratio(float64(lc.ns[row]), float64(lc.items[row]))
}

// timeRow runs f as one timed loop over n items of row.
func (lc *layerCost) timeRow(row int, f func() uint64) {
	t0 := time.Now()
	n := f()
	lc.ns[row] += int64(time.Since(t0))
	lc.items[row] += n
}

// access is one request of a derived stream: a line and its cycle.
type access struct {
	line mem.Addr
	now  uint64
}

// replay drives the TLB, the CPU window, the L1D/L2C/LLC caches and DRAM
// over one trace's records; each cache level's miss stream feeds the
// next level and the LLC's feeds DRAM.
func (lc *layerCost) replay(cfg sim.Config, recs []trace.Record) {
	lc.timeRow(rowTLB, func() uint64 {
		t := tlb.New(cfg.TLB)
		for _, r := range recs {
			t.Translate(r.Addr)
		}
		return uint64(len(recs))
	})
	lc.timeRow(rowCPU, func() uint64 {
		c := cpu.New(cfg.Core)
		for _, r := range recs {
			if r.Gap > 0 {
				c.DispatchNonLoads(int(r.Gap))
			}
			c.DispatchLoad(func(issue uint64) uint64 { return issue + loadCycles })
		}
		return c.Dispatched()
	})

	stream := make([]access, len(recs))
	for i, r := range recs {
		stream[i] = access{line: r.Addr.Line(), now: uint64(i) * cyclesPerAccess}
	}
	for row, cc := range []cache.Config{cfg.L1D, cfg.L2C, cfg.LLC} {
		misses := make([]access, 0, len(stream))
		lc.timeRow(row, func() uint64 {
			c := cache.New(cc)
			for _, a := range stream {
				if hit, _ := c.Lookup(a.line, a.now, true); hit {
					continue
				}
				if _, ok := c.InFlight(a.line, a.now); ok {
					continue
				}
				c.ReserveMSHR(a.line, a.now, a.now+missCycles, true)
				c.Fill(a.line, a.now+missCycles, false)
				misses = append(misses, access{line: a.line, now: a.now + cc.Latency})
			}
			return uint64(len(stream))
		})
		stream = misses
	}
	lc.timeRow(rowDRAM, func() uint64 {
		d := dram.New(cfg.DRAM)
		for _, a := range stream {
			d.Access(a.line.LineID(), a.now, true)
		}
		return uint64(len(stream))
	})
}

// measureLayers generates every distinct trace of the workload, timing
// the generators, and replays each through the layer rows.
func measureLayers(cfg sim.Config, specs []trace.Spec, records int) *layerCost {
	lc := &layerCost{}
	seen := map[string]bool{}
	buf := make([]trace.Record, 0, records)
	for _, sp := range specs {
		if seen[sp.Name] {
			continue
		}
		seen[sp.Name] = true
		t0 := time.Now()
		buf = generate(sp, records, buf)
		lc.genNS += int64(time.Since(t0))
		lc.genRecords += uint64(len(buf))
		lc.replay(cfg, buf)
	}
	return lc
}
