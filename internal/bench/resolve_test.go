package bench

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmp/internal/prefetch"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// resolveScale is deliberately tiny: these tests compare constructions
// for equality, not performance.
var resolveScale = Scale{Traces: 1, Records: 12_000, Warmup: 3_000, Measure: 30_000}

// Every experiment config must survive the wire: a JSON round-trip of
// the scale's config keeps the run's ID, or remote job IDs would never
// match local ones.
func TestConfigIDSurvivesJSON(t *testing.T) {
	for _, cfg := range []sim.Config{QuickScale().Config(), DefaultScale().Config().WithLLCMB(8)} {
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var back sim.Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		v := RegistryVariant(NamePMP)
		if got, want := singleSpec("t", v, nil, back).ID(), singleSpec("t", v, nil, cfg).ID(); got != want {
			t.Errorf("ID changed across a JSON round-trip of the config: %s, want %s", got, want)
		}
	}
}

// singleSpec is the one-core run spec the suite path submits.
func singleSpec(traceName string, v VariantSpec, placements []runspec.Placement, cfg sim.Config) runspec.RunSpec {
	return runspec.RunSpec{
		Cores:      []runspec.CoreSpec{{Trace: runspec.TraceRef{Name: traceName}, Variant: v}},
		Placements: placements,
		Records:    resolveScale.Records,
		Config:     cfg,
	}
}

// BuildRun must reproduce direct machine construction byte-for-byte: a
// plain single-core run equals sim.NewMachineAt with no attachments,
// and an LLC placement equals an AttachSpec at the outermost level.
func TestBuildRunMatchesLocal(t *testing.T) {
	cfg := resolveScale.Config()
	sp := resolveScale.Specs()[0]

	for _, tc := range []struct {
		name  string
		spec  runspec.RunSpec
		local func() sim.Result
	}{
		{"core", singleSpec(sp.Name, RegistryVariant(NamePMP), nil, cfg), func() sim.Result {
			m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{NewPrefetcher(NamePMP)}, nil, false)
			return m.Run([]trace.Source{sp.New(resolveScale.Records)})[0]
		}},
		{"llc-placement", singleSpec(sp.Name, RegistryVariant(NameNone),
			[]runspec.Placement{{Level: 2, Variant: RegistryVariant(NamePMP)}}, cfg), func() sim.Result {
			llc := []sim.AttachSpec{{Level: 2, New: func() prefetch.Prefetcher { return NewPrefetcher(NamePMP) }}}
			m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{prefetch.Nop{}}, llc, false)
			return m.Run([]trace.Source{sp.New(resolveScale.Records)})[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := BuildRun(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			got, want := run(context.Background()), []sim.Result{tc.local()}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec build differs from legacy construction:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// Structural and resolution errors must surface at build time, before
// any simulation: that is what lets a worker quarantine a stale or
// malformed job instead of crashing mid-run.
func TestBuildRunRejects(t *testing.T) {
	cfg := resolveScale.Config()
	sp := resolveScale.Specs()[0]
	cases := map[string]runspec.RunSpec{
		"unknown trace":    singleSpec("no-such-trace", RegistryVariant(NamePMP), nil, cfg),
		"unknown registry": singleSpec(sp.Name, RegistryVariant("frobnicate"), nil, cfg),
		"placement depth": singleSpec(sp.Name, RegistryVariant(NamePMP),
			[]runspec.Placement{{Level: 3, Variant: RegistryVariant(NameBingo)}}, cfg),
		"no construction": singleSpec(sp.Name, VariantSpec{Name: "empty"}, nil, cfg),
		"no cores":        {Records: 1000, Config: cfg},
	}
	for name, rs := range cases {
		if _, err := BuildRun(rs); err == nil {
			t.Errorf("%s: BuildRun accepted %+v", name, rs)
		}
	}
}

// A remote runner against a real coordinator and worker produces the
// same results as the local sweep path — the full client → wire →
// build → simulate loop at tiny scale, with bearer-token auth on.
func TestRunnerRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a coordinator, a worker, and real simulations")
	}
	const token = "remote-test-secret"
	scale := Scale{Traces: 2, Records: 12_000, Warmup: 3_000, Measure: 30_000}
	cfg := scale.Config()

	want := NewRunner(scale).Run(NamePMP, cfg)

	sw := sweep.New(context.Background(), sweep.Options{})
	defer sw.Close()
	coord := remote.NewCoordinator(remote.CoordinatorOptions{Sweep: sw, AuthToken: token})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The shared secret gates every endpoint: no header, no service.
	resp, err := http.Post(srv.URL+"/status", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /status = %d, want %d", resp.StatusCode, http.StatusUnauthorized)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = remote.RunWorker(wctx, remote.WorkerOptions{
			Coordinator: srv.URL,
			Name:        "test",
			Parallel:    2,
			Build:       BuildRun,
			Token:       token,
			Poll:        10 * time.Millisecond,
		})
	}()

	rc := remote.NewClient(srv.URL)
	rc.Poll = 10 * time.Millisecond
	rc.Token = token
	r := NewRunnerRemote(ctx, scale, rc)
	got := r.Run(NamePMP, cfg)

	stopWorker()
	<-workerDone
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("remote run differs from local:\ngot  %+v\nwant %+v", got.Results, want.Results)
	}
	if !reflect.DeepEqual(got.Baseline, want.Baseline) {
		t.Errorf("remote baseline differs from local:\ngot  %+v\nwant %+v", got.Baseline, want.Baseline)
	}
}
