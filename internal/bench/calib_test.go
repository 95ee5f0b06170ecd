package bench

import (
	"fmt"
	"os"
	"testing"
)

// TestCalibrate dumps per-trace baseline characteristics and PMP's
// response — a diagnostic for tuning the workload generators. Run with
// PMP_CALIBRATE=1.
func TestCalibrate(t *testing.T) {
	if os.Getenv("PMP_CALIBRATE") == "" {
		t.Skip("set PMP_CALIBRATE=1 to dump calibration data")
	}
	scale := QuickScale()
	scale.Traces = 12
	cfg := scale.Config()
	for _, sp := range scale.Specs() {
		base := runSingle(sp, NewPrefetcher(NameNone), scale, cfg)
		pmp := runSingle(sp, NewPrefetcher(NamePMP), scale, cfg)
		util := float64(base.DRAM.BusyCycles) / float64(base.Cycles)
		fmt.Printf("%-22s base ipc=%.2f mpki=%5.1f util=%4.1f%% | pmp nipc=%.3f nmt=%.2f l1useful=%d\n",
			sp.Name, base.IPC(), base.MPKI(), util*100,
			pmp.IPC()/base.IPC(), float64(pmp.DRAM.Requests)/float64(base.DRAM.Requests),
			pmp.L1D.UsefulPrefetch)
	}
}
