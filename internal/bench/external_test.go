package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// externalManifest materializes two small converted-style .pmpt traces
// plus a manifest listing them, and returns the loaded specs.
func externalManifest(t *testing.T, records int) []trace.Spec {
	t.Helper()
	specs, err := trace.LoadManifest(writeExternalManifest(t, records, "extbench-a", "extbench-b"))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// writeExternalManifest writes one small .pmpt trace per name plus a
// manifest listing them, and returns the manifest path.
func writeExternalManifest(t *testing.T, records int, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	entries := make([]trace.ExternalSpec, 0, len(names))
	for i, name := range names {
		tr := trace.Collect(trace.NewStride(name, int64(100+i), records, trace.DefaultStrideParams()), 0)
		path := filepath.Join(dir, name+".pmpt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		sum, err := trace.FileSHA256(path)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, trace.ExternalSpec{
			Name: name, Family: "external", Class: trace.MediumMPKI,
			Path: name + ".pmpt", SHA256: sum, Records: tr.Len(),
		})
	}
	data, err := json.Marshal(trace.Manifest{Version: trace.ManifestVersion, Traces: entries})
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, "traces.json")
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return mpath
}

// extScale keeps the external e2e runs fast and sized to the small
// converted files.
func extScale() Scale {
	return Scale{Traces: 4, Records: 3_000, Warmup: 500, Measure: 2_000}
}

// TestRegisterExternalShadowsSuite checks that an external trace named
// after a suite trace never reaches a run: the manifest loader that
// feeds Runner.WithSpecs refuses it.
func TestRegisterExternalShadowsSuite(t *testing.T) {
	name := trace.Suite()[0].Name
	_, err := trace.LoadManifest(writeExternalManifest(t, 200, name))
	if err == nil || !strings.Contains(err.Error(), "shadows a built-in") {
		t.Fatalf("loading external trace named %q (a suite trace): err %v, want a shadowing error", name, err)
	}
}

// TestExternalExperiment runs the EXTW table over manifest traces on
// the local pool: every registry prefetcher gets a row and the runs
// complete against the file-backed sources.
func TestExternalExperiment(t *testing.T) {
	specs := externalManifest(t, 3_000)
	r := NewRunner(extScale()).WithSpecs(specs)
	tbl := External(r)
	if tbl.ID != "EXTW" {
		t.Errorf("table ID %q", tbl.ID)
	}
	want := len(EvalNames()) + len(RelatedNames())
	if len(tbl.Rows) != want {
		t.Fatalf("EXTW has %d rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if row[1] == "" || row[1] == "0.000" {
			t.Errorf("prefetcher %s: NIPC %q — external run produced no signal", row[0], row[1])
		}
	}
}

// TestExternalRemoteCanonicalIdentity is the distributed acceptance
// path: the same external-trace job set through (a) a serial
// store-backed local sweep and (b) an in-process coordinator + worker
// (the worker reconstructing sources from the wire TraceFile via
// BuildRun) must produce byte-identical canonical store dumps.
func TestExternalRemoteCanonicalIdentity(t *testing.T) {
	specs := externalManifest(t, 3_000)
	scale := extScale()
	cfg := scale.Config()

	runSerial := func() []byte {
		path := filepath.Join(t.TempDir(), "serial.jsonl")
		store, err := sweep.OpenStore(path, false)
		if err != nil {
			t.Fatal(err)
		}
		sw := sweep.New(context.Background(), sweep.Options{Workers: 1, Store: store})
		r := NewRunnerWith(scale, sw).WithSpecs(specs)
		r.Run(NamePMP, cfg)
		sw.Close()
		store.Close()
		var buf bytes.Buffer
		if err := sweep.WriteCanonical(&buf, path); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	runRemote := func() []byte {
		path := filepath.Join(t.TempDir(), "remote.jsonl")
		store, err := sweep.OpenStore(path, false)
		if err != nil {
			t.Fatal(err)
		}
		sw := sweep.New(context.Background(), sweep.Options{Store: store})
		coord := remote.NewCoordinator(remote.CoordinatorOptions{
			Sweep:      sw,
			LeaseMax:   4,
			DrainGrace: 50 * time.Millisecond,
		})
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()

		workerDone := make(chan error, 1)
		go func() {
			workerDone <- remote.RunWorker(ctx, remote.WorkerOptions{
				Coordinator:     srv.URL,
				Name:            "ext-e2e",
				Parallel:        2,
				Build:           BuildRun,
				Poll:            10 * time.Millisecond,
				ExitWhenDrained: true,
			})
		}()

		cl := remote.NewClient(srv.URL)
		cl.Poll = 10 * time.Millisecond
		r := NewRunnerRemote(ctx, scale, cl).WithSpecs(specs)
		r.Run(NamePMP, cfg)
		if err := <-workerDone; err != nil && ctx.Err() == nil {
			t.Fatalf("worker: %v", err)
		}
		sw.Close()
		var buf bytes.Buffer
		if err := sweep.WriteCanonical(&buf, path); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := runSerial()
	dist := runRemote()
	if !bytes.Equal(serial, dist) {
		t.Errorf("canonical dumps differ between serial and distributed external runs:\nserial:\n%s\ndistributed:\n%s",
			serial, dist)
	}
}

// TestBuildRunTraceFile checks the wire path in isolation: a run spec
// carrying only a TraceFile (no registry entry) reconstructs and runs.
func TestBuildRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	tr := trace.Collect(trace.NewStream("wire-only", 9, 2_000, trace.DefaultStreamParams()), 0)
	path := filepath.Join(dir, "wire-only.pmpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	scale := extScale()
	cfg := scale.Config()
	run, err := BuildRun(runspec.RunSpec{
		Cores: []runspec.CoreSpec{{
			Trace:   runspec.TraceRef{Name: "wire-only-unregistered", File: path},
			Variant: RegistryVariant(NamePMP),
		}},
		Records: scale.Records,
		Config:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(context.Background())
	if len(res) != 1 || res[0].Instructions == 0 {
		t.Errorf("wire-file job simulated nothing: %+v", res)
	}

	// And an unknown trace with no file is still an error.
	if _, err := BuildRun(runspec.RunSpec{
		Cores:   []runspec.CoreSpec{{Trace: runspec.TraceRef{Name: "nope"}, Variant: RegistryVariant(NamePMP)}},
		Records: scale.Records,
		Config:  cfg,
	}); err == nil {
		t.Error("unknown trace without a wire file should error")
	}
}

// TestBuildRunClosesTraceFiles runs many jobs over one trace file and
// checks that none leaves its file open. GC stays off so that no
// finalizer closes a leaked file behind the test's back.
func TestBuildRunClosesTraceFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open descriptors in /proc/self/fd")
	}
	manifest := writeExternalManifest(t, 200, "leak")
	cfg := extScale().Config()
	cfg.Warmup, cfg.Measure = 50, 100
	run, err := BuildRun(runspec.RunSpec{
		Cores: []runspec.CoreSpec{{
			Trace:   runspec.TraceRef{Name: "leak", File: filepath.Join(filepath.Dir(manifest), "leak.pmpt")},
			Variant: RegistryVariant(NameNone),
		}},
		Records: 200,
		Config:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFDs()
	for i := 0; i < 200; i++ {
		run(context.Background())
	}
	if after := openFDs(); after != before {
		t.Errorf("200 jobs changed open descriptors from %d to %d", before, after)
	}
}
