package analysis_test

import (
	"strings"
	"testing"

	"pmp/internal/analysis"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/nextline"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

func tracedStreamResult(t *testing.T) sim.Result {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warmup = 10_000
	m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{nextline.New(2)}, nil, false)
	m.EnableLifecycleTracing(nil)
	p := trace.DefaultStreamParams()
	p.Streams = 2
	return m.Run([]trace.Source{trace.NewStream("stream", 1, 60_000, p)})[0]
}

func TestTimelinessReportFromTracedRun(t *testing.T) {
	res := tracedStreamResult(t)
	reports := analysis.Timeliness(res, 3)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Prefetcher != "nextline" {
		t.Errorf("prefetcher = %q", r.Prefetcher)
	}
	if r.Total.Issued == 0 || r.Total.Used() == 0 {
		t.Fatalf("stream run recorded no lifecycle activity: %+v", r.Total)
	}
	if len(r.TopRegions) == 0 || len(r.TopRegions) > 3 {
		t.Errorf("top regions = %d, want 1..3", len(r.TopRegions))
	}
	var sawL1 bool
	for _, lv := range r.Levels {
		if lv.Level == prefetch.LevelL1 {
			sawL1 = true
			if lv.Coverage <= 0 || lv.Coverage > 1 {
				t.Errorf("L1 coverage = %v, want (0, 1]", lv.Coverage)
			}
		}
	}
	if !sawL1 {
		t.Error("nextline report missing the L1 level")
	}

	out := r.String()
	for _, want := range []string{"lifecycle [nextline]", "timely", "late", "useless", "slack", "region#1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestTimelinessEmptyWithoutTracing(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warmup = 1_000
	src := trace.NewStream("s", 1, 5_000, trace.DefaultStreamParams())
	res := sim.NewMachineAt(cfg, []prefetch.Prefetcher{nextline.New(1)}, nil, false).Run([]trace.Source{src})[0]
	if got := analysis.Timeliness(res, 5); len(got) != 0 {
		t.Errorf("untraced run produced %d reports", len(got))
	}
}
