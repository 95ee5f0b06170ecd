// Command pmpexperiments runs the paper-reproduction experiment
// harness and prints each table/figure in the experiment index,
// bench.Experiments (DESIGN.md §5).
//
// All requested experiments are submitted to a shared sweep scheduler
// up front (see docs/sweep.md): their per-trace simulations execute on
// one bounded worker pool, identical jobs are deduplicated across
// experiments, and tables print in index order as their jobs complete.
// With -store the per-job results persist to an append-only JSONL
// store, and -resume skips every job already completed there, so an
// interrupted run (Ctrl-C flushes the store before exit) picks up
// where it left off. Rendered tables are byte-identical to a serial
// run at the same scale.
//
// With -remote the per-trace simulations are submitted to a running
// pmpsweepd coordinator instead of the in-process pool: the
// coordinator deduplicates them in its own sweep and leases them to
// its workers, and this process polls for the records and renders the
// same tables. The results store then lives with the coordinator, so
// -store/-resume/-workers are rejected client-side.
//
// A store append, store close or manifest write that fails is
// reported at the end, and the command exits 1.
//
// Usage:
//
//	pmpexperiments [-scale quick|default|full] [-exp ID[,ID...]] [-list]
//	               [-manifest traces.json] [-store file.jsonl [-resume]]
//	               [-workers N] [-job-timeout d] [-retries N] [-csv dir]
//	               [-remote coordinator:port [-auth-token secret]]
//
// With -manifest the external-suite manifest's converted traces (see
// docs/traces.md and `pmptrace convert`) register next to the
// synthetic suite and the EXTW experiment — the full prefetcher
// registry over those traces — joins the index.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pmp/internal/bench"
	"pmp/internal/prof"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// expResult carries one finished experiment back to the printer.
type expResult struct {
	tbl *bench.Table // nil when the sweep was interrupted
	dur time.Duration
}

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: quick, default or full")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all); see -list")
	listFlag := flag.Bool("list", false, "list experiment IDs and exit")
	csvDir := flag.String("csv", "", "also write each experiment as <dir>/<ID>.csv")
	manifestPath := flag.String("manifest", "", "external-suite manifest of converted traces (docs/traces.md); enables the EXTW experiment")
	storePath := flag.String("store", "", "persist per-job results to this append-only JSONL store")
	resumeFlag := flag.Bool("resume", false, "skip jobs already completed in -store (requires -store)")
	remoteAddr := flag.String("remote", "", "submit jobs to a running pmpsweepd coordinator at this address")
	authToken := flag.String("auth-token", "", "shared-secret bearer token for a -remote coordinator started with -auth-token")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "sweep worker pool size")
	jobTimeout := flag.Duration("job-timeout", 30*time.Minute, "per-job attempt timeout (0 = none)")
	retries := flag.Int("retries", 2, "attempts per job before quarantine")
	progressFlag := flag.Bool("progress", true, "report sweep progress on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
		os.Exit(1)
	}
	defer stopProf()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
		os.Exit(2)
	}

	var extSpecs []trace.Spec
	if *manifestPath != "" {
		extSpecs, err = trace.LoadManifest(*manifestPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
			os.Exit(1)
		}
	}

	index := bench.Experiments(extSpecs)
	if *listFlag {
		for _, e := range index {
			fmt.Printf("%-5s %s\n", e.ID, e.Desc)
		}
		return
	}

	known := map[string]bool{}
	for _, e := range index {
		known[e.ID] = true
	}
	want := map[string]bool{}
	if *expFlag != "" {
		var unknown []string
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			// "HET" selects the whole heterogeneous-hierarchy family.
			if id == "HET" {
				for _, e := range index {
					if strings.HasPrefix(e.ID, "HET") {
						want[e.ID] = true
					}
				}
				continue
			}
			if !known[id] {
				unknown = append(unknown, id)
				continue
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s (see -list for valid IDs)\n",
				strings.Join(unknown, ", "))
			os.Exit(2)
		}
		if len(want) == 0 {
			fmt.Fprintln(os.Stderr, "-exp selected no experiments (see -list)")
			os.Exit(2)
		}
	}

	if *resumeFlag && *storePath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -store")
		os.Exit(2)
	}
	workersSet := false
	flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	if *remoteAddr != "" && (*storePath != "" || *resumeFlag || workersSet) {
		fmt.Fprintln(os.Stderr, "-remote runs keep the store with the coordinator; drop -store/-resume/-workers")
		os.Exit(2)
	}
	if *remoteAddr == "" && *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers must be at least 1, got %d\n", *workers)
		os.Exit(2)
	}
	var store *sweep.Store
	if *storePath != "" {
		store, err = sweep.OpenStore(*storePath, *resumeFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
			os.Exit(1)
		}
		if *resumeFlag {
			fmt.Fprintf(os.Stderr, "sweep: resuming from %s (%d records", *storePath, store.Loaded())
			if n := store.Skipped(); n > 0 {
				fmt.Fprintf(os.Stderr, ", %d malformed lines skipped", n)
			}
			fmt.Fprintln(os.Stderr, ")")
		}
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	var sw *sweep.Sweep
	var r *bench.Runner
	if *remoteAddr != "" {
		rc := remote.NewClient(*remoteAddr)
		rc.Token = *authToken
		if _, err := rc.Status(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pmpexperiments: coordinator %s: %v\n", *remoteAddr, err)
			os.Exit(1)
		}
		r = bench.NewRunnerRemote(ctx, scale, rc)
		if *progressFlag {
			go remoteProgress(ctx, rc)
		}
	} else {
		opts := sweep.Options{
			Workers:     *workers,
			MaxAttempts: *retries,
			JobTimeout:  *jobTimeout,
			Store:       store,
		}
		if *progressFlag {
			opts.Progress = sweep.WriterProgress(os.Stderr)
		}
		sw = sweep.New(ctx, opts)
		r = bench.NewRunnerWith(scale, sw)
	}

	var selected []bench.Experiment
	for _, e := range index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
	}

	// Launch every selected experiment up front; each builder submits
	// its simulations to the shared sweep and assembles its table when
	// they complete. Tables print in index order as they become ready.
	results := make([]chan expResult, len(selected))
	for i, e := range selected {
		ch := make(chan expResult, 1)
		results[i] = ch
		go func() {
			t0 := time.Now()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(sweep.Interrupted); ok {
						ch <- expResult{nil, time.Since(t0)}
						return
					}
					panic(p)
				}
			}()
			ch <- expResult{e.Run(r), time.Since(t0)}
		}()
	}

	interrupted := false
	for i, e := range selected {
		res := <-results[i]
		if res.tbl == nil {
			interrupted = true
			break
		}
		fmt.Println(res.tbl)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			} else {
				path := filepath.Join(*csvDir, e.ID+".csv")
				if err := os.WriteFile(path, []byte(res.tbl.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				}
			}
		}
		fmt.Printf("-- %s completed in %v --\n\n", e.ID, res.dur.Round(time.Millisecond))
	}

	storeErrs := 0
	if sw != nil {
		m := sw.Close()
		storeErrs = m.StoreErrors
		if store != nil {
			fmt.Fprintf(os.Stderr, "sweep: store %s: %d new, %d cached, %d quarantined",
				store.Path(), m.Completed, m.Cached, m.Quarantined)
			if storeErrs > 0 {
				fmt.Fprintf(os.Stderr, ", %d store errors (results or manifest not persisted)\n", storeErrs)
			} else {
				fmt.Fprintf(os.Stderr, " (manifest: %s)\n", store.ManifestPath())
			}
		}
	}
	if interrupted {
		if *remoteAddr != "" {
			fmt.Fprintln(os.Stderr, "interrupted: submitted jobs keep running on the coordinator; re-run -remote to re-attach")
		} else {
			fmt.Fprintln(os.Stderr, "interrupted: results store flushed; re-run with -resume to continue")
		}
		os.Exit(130)
	}
	fmt.Printf("total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if storeErrs > 0 {
		os.Exit(1)
	}
}

// remoteProgress renders the coordinator's sweep snapshot every 5s
// while a -remote run is in flight.
func remoteProgress(ctx context.Context, rc *remote.Client) {
	report := sweep.WriterProgress(os.Stderr)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			st, err := rc.Status(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "remote: status: %v\n", err)
				continue
			}
			report(st.Snapshot, false)
		}
	}
}
